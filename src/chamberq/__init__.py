"""Restricted root systems, Gamma-product invariants, and Weyl-chamber
quadrature for testing projective flatness of quantization on compact
symmetric spaces."""

from .rootsys import *
from .hcfun import *
from .asymquad import *
from .cli import *

del main  # the console entry point stays in cli

__version__ = "0.1.0"
