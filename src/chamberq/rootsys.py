"""Restricted root systems with multiplicity functions.

A root system here is a finite set of positive roots in a rank-r Euclidean
space, each carrying a positive multiplicity. Vectors are plain 1-D numpy
arrays holding coordinates with respect to a fixed orthonormal basis, so a
linear functional and its metric dual share one representation: alpha(H) is
just the dot product.

Non-reduced systems are supported: the list may contain pairs {alpha,
2*alpha}, as happens for projective spaces. A multiplicity function is
"geometric" when it is positive-integer valued and an odd multiplicity
forces the doubled root to be absent; that is exactly the constraint
satisfied by the restricted root data of a compact symmetric space.

Default normalization: the standard coordinate realizations produced by
:func:`build_root_system` are globally rescaled so the longest positive
root has squared length 2. All quantities of the form <v, alpha_0> with
alpha_0 = alpha/<alpha,alpha> are invariant under this choice; callers who
care about absolute norms can pass ``metric_scale``.

Structure: a system built from a spec takes its half and double roots and
its simple roots from the class table, in closed form; its duplicates,
geometric rule and Weyl closure hold by construction. Only a system given
as raw roots to :class:`RootSystem` is matched, root against root, and the
tests hold the closed form to that matcher.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "RootSystem",
    "SphericalWeight",
    "build_root_system",
    "root_spec",
    "spherical_weight",
    "rho_pairing_identity",
    "dimension",
    "dominant_weights",
    "rescale",
    "is_reduced",
    "as_vector",
]

_MATCH_TOL = 1e-9
# a match block holds n * rank queries against n roots, at most n * n * rank
# float entries, but at least _MIN_BLOCK queries: fewer cost more than they save
_MIN_BLOCK = 64


def as_vector(coords, rank: int | None = None) -> np.ndarray:
    """Validate and freeze a copy of a coordinate vector (finite entries, right length)."""
    v = np.array(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D coordinate vector, got shape {v.shape}")
    if rank is not None and v.shape[0] != rank:
        raise ValueError(f"vector has length {v.shape[0]}, expected rank {rank}")
    # vectors have rank entries: the math module beats a ufunc call on so few
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("vector has non-finite entries")
    v.flags.writeable = False
    return v


def _match(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query vector (the last axis), the index of the first row
    equal to it within tolerance, or -1. Blocks of queries are compared
    with every row one coordinate at a time: np.all over the short rank
    axis would cost more than the comparisons."""
    flat = queries.reshape(-1, rows.shape[1])
    found = np.empty(len(flat), dtype=np.intp)
    step = max(rows.size, _MIN_BLOCK)
    d = np.empty((min(step, len(flat)), len(rows)))  # one buffer for every block
    for s in range(0, len(flat), step):
        block = flat[s:s + step]
        diff, hit = d[:len(block)], True
        for q, r in zip(block.T, rows.T):
            hit &= np.abs(np.subtract(q[:, None], r, out=diff), out=diff) <= _MATCH_TOL
        found[s:s + step] = np.where(hit.any(1), hit.argmax(1), -1)
    return found.reshape(queries.shape[:-1])


def _integral(mults) -> bool:
    return all(abs(m - round(m)) <= _MATCH_TOL and round(m) >= 1 for m in mults)


def _check_geometric(mults, has_double) -> None:
    """The geometric rule: integer multiplicities, and an even one wherever
    the doubled root is present. Plain floats; ``has_double`` aligns."""
    if not _integral(mults):
        raise ValueError("geometric multiplicities must be integers")
    if any(d and round(m) % 2 for m, d in zip(mults, has_double)):
        raise ValueError("odd multiplicity on a root whose double is present")


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Positive roots with multiplicities in a rank-r Euclidean space.

    ``roots`` is an (n, rank) array whose rows are the positive roots and
    ``mults`` the matching multiplicities. ``geometric`` gates the integer
    constraints described in the module docstring.
    """

    rank: int
    roots: np.ndarray
    mults: np.ndarray
    geometric: bool = False

    def __post_init__(self):
        self._take_arrays()
        self._validate_structure()

    def _take_arrays(self):
        # the checks that every construction makes, matching or not
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        roots = np.asarray(self.roots, dtype=float)
        mults = np.asarray(self.mults, dtype=float)
        if roots.ndim != 2 or roots.shape[1] != self.rank or roots.shape[0] == 0:
            raise ValueError("roots must be a nonempty (n, rank) array")
        if mults.shape != (roots.shape[0],):
            raise ValueError("mults must align with roots")
        if not (np.isfinite(roots).all() and np.isfinite(mults).all()):
            raise ValueError("non-finite root data")
        # the checks compare roots in units of the longest one, so that they
        # hold at every metric scale
        norms = np.linalg.norm(roots, axis=1)
        if (norms <= _MATCH_TOL * norms.max()).any():
            raise ValueError("zero vector listed as a root")
        if (mults <= 0).any():
            raise ValueError("multiplicities must be positive")
        roots = roots.copy()
        mults = mults.copy()
        roots.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "_unit", roots / norms.max())

    @classmethod
    def _standard(cls, rank, roots, mults, geometric, half, double, simple) -> RootSystem:
        """A system whose structure is known in closed form: the checks of
        :meth:`_take_arrays`, then the given half and double indices and
        simple roots, with no matching."""
        rs = object.__new__(cls)
        vars(rs).update(rank=rank, roots=roots, mults=mults, geometric=geometric)
        rs._take_arrays()
        rs._set_structure(half, double, simple)
        return rs

    # -- structural checks -------------------------------------------------

    def _validate_structure(self):
        roots, mults, n = self._unit, self.mults, len(self.roots)
        # one match: each root, its half and its double
        same, half, double = _match(roots, np.array([roots, 0.5 * roots, 2.0 * roots]))
        if (same != np.arange(n)).any():
            raise ValueError("duplicate positive root")
        if ((half >= 0) & (double >= 0)).any():
            raise ValueError("root has both its half and its double in the system")
        if self.geometric:
            _check_geometric(mults.tolist(), (double >= 0).tolist())
        self._set_structure(half, double, self._detect_simple())
        self._check_weyl_invariance()

    def _set_structure(self, half, double, simple):
        # deterministic simple root order: lexicographic on rounded unit
        # coordinates, which fixes the fundamental weights' order
        keys = np.round(self._unit[simple], 9).tolist()
        object.__setattr__(self, "_half", half)
        object.__setattr__(self, "_double", double)
        object.__setattr__(self, "_simple_idx", tuple(
            simple[k] for k in sorted(range(len(simple)), key=keys.__getitem__)))

    def _detect_simple(self) -> list[int]:
        # simple = positive root a with no root a - b, b a positive root;
        # the differences of a block of roots are one match block
        roots, n = self._unit, len(self.roots)
        step = max(self.rank, _MIN_BLOCK // n)
        composite = np.concatenate([
            (_match(roots, roots[s:s + step, None] - roots) >= 0).any(1)
            for s in range(0, n, step)])
        return np.flatnonzero(~composite).tolist()

    def _check_weyl_invariance(self):
        # m must be constant on orbits; for geometric systems the reflected
        # root additionally has to be present (closure under the Weyl
        # group). Every root is reflected in every simple root at once, and
        # the first simple root with a failure names it.
        roots, mults = self._unit, self.mults
        s = roots[list(self._simple_idx)]
        refl = roots[:, None] - (2.0 * (roots @ s.T) / (s * s).sum(1))[..., None] * s
        refl = np.array([refl, -refl])  # a negated reflection may be the root
        k, k_neg = _match(roots, refl)
        k = np.where(k >= 0, k, k_neg)
        found, m = k >= 0, mults[:, None]
        uneven = found & (np.abs(mults[k] - m) > _MATCH_TOL * np.maximum(1.0, m))
        missing = ~found & self.geometric
        failed = (missing | uneven).any(0)
        if failed.any():
            if missing[:, failed.argmax()].any():
                raise ValueError("geometric system not closed under a simple reflection")
            raise ValueError("multiplicity is not Weyl invariant")

    # -- derived data, computed on first use ---------------------------------

    @cached_property
    def rho(self) -> np.ndarray:
        """Half the multiplicity-weighted sum of the positive roots."""
        return as_vector(0.5 * (self.mults @ self.roots), self.rank)

    @cached_property
    def indivisible_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positive roots alpha with alpha/2 absent, as read-only arrays:
        the (n, rank) roots alpha, m_alpha, and m_2alpha (0 where 2 alpha is
        not a root)."""
        keep = self._half < 0
        double = self._double[keep]
        cols = (self.roots[keep], self.mults[keep],
                np.where(double >= 0, self.mults[double], 0.0))
        for col in cols:
            col.flags.writeable = False
        return cols

    @cached_property
    def indivisible(self) -> tuple[tuple[np.ndarray, float, float], ...]:
        """:attr:`indivisible_arrays` root by root, as (alpha, m_alpha,
        m_2alpha), each alpha a read-only row of the table."""
        alphas, m, m2 = self.indivisible_arrays
        return tuple(zip(alphas, m.tolist(), m2.tolist()))

    @cached_property
    def shift_classes(self) -> tuple[tuple[np.ndarray, float, float], ...]:
        """The indivisible roots grouped by their pair (m_alpha, m_2alpha),
        which fixes the shifts m/2 and m2/2 of the Gamma ratios in Q and c:
        per class, (the indices of its roots in :attr:`indivisible_arrays`,
        m, m2), in the order of each class's first root."""
        _, m, m2 = self.indivisible_arrays
        pairs = list(zip(m.tolist(), m2.tolist()))
        return tuple((np.flatnonzero([p == key for p in pairs]), *key)
                     for key in dict.fromkeys(pairs))

    @cached_property
    def lattice_pairings(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(P, r, bound): at lattice coordinates c the pairings
        <mu + rho, alpha>/<alpha, alpha> of the indivisible roots are c P + r;
        P holds the integers <mu_j, alpha>/<alpha, alpha> and r = (m . N)/4,
        added left to right, N the integers 2<beta, alpha>/<alpha, alpha>. For
        integer c and m with max |c| <= bound, every partial sum of c P + r is
        exact, within 2^52. ValueError where P or N is not an integer."""
        alphas = self.indivisible_arrays[0]
        # the ratios are rounded: the last bits of the norms reach no output
        norms = np.einsum("ij,ij->i", alphas, alphas)
        ratios = np.concatenate([self.fundamental_weights, 2.0 * self.roots]) @ alphas.T / norms
        ints = ratios.round()
        if not np.abs(ratios - ints).max() <= _MATCH_TOL:
            raise ValueError("root pairings are not integers: the roots are not crystallographic")
        P = ints[:self.rank]
        # a sum over the slow axis: numpy adds the rows in order, left to right
        r = ((0.25 * self.mults)[:, None] * ints[self.rank:]).sum(0)
        P.flags.writeable = r.flags.writeable = False
        return P, r, (2.0**52 - max(map(abs, r.tolist()))) / max(map(sum, np.abs(P).T.tolist()))

    @cached_property
    def fundamental_weights(self) -> tuple[np.ndarray, ...]:
        """Basis of the dominant weight lattice, dual to the unmultipliable
        basis.

        With beta_j = alpha_j when 2*alpha_j is not a root and beta_j =
        2*alpha_j otherwise, the weights satisfy <mu_j, beta_k>/<beta_k,beta_k>
        = delta_jk.
        """
        # lazy: only this value needs the simple roots to form a basis
        idx = list(self._simple_idx)
        if len(idx) != self.rank:
            raise ValueError("simple roots do not form a basis of the ambient space")
        simple = self.roots[idx]
        B = np.where((self._double[idx] >= 0)[:, None], 2.0 * simple, simple)
        norms = np.einsum("ij,ij->i", B, B)
        try:
            # rows of the solution: mu_j with B @ mu_j = delta_jk * |beta_k|^2
            M = np.linalg.solve(B, np.diag(norms)).T
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular Gram matrix: degenerate root basis") from exc
        return tuple(as_vector(M[j], self.rank) for j in range(self.rank))

    @cached_property
    def chamber_edges(self) -> np.ndarray:
        """Edge rays of the closed Weyl chamber, the cone on which every
        positive root is nonnegative: a read-only (rank, rank) array whose
        rows are the unit fundamental weights."""
        mus = np.array(self.fundamental_weights)
        edges = mus / np.linalg.norm(mus, axis=1)[:, None]
        # a root on a wall pairs to rounding noise below 0
        if np.any(self._unit @ edges.T < -_MATCH_TOL):
            raise ValueError("empty Weyl chamber: roots are not one sided")
        edges.flags.writeable = False
        return edges

    def simple_roots(self) -> np.ndarray:
        """Simple positive roots as rows, in a deterministic order."""
        return self.roots[list(self._simple_idx)]


def is_reduced(rs: RootSystem) -> bool:
    """True when no positive root has its double in the system."""
    return bool(np.all(rs._double < 0))


@dataclass(frozen=True, eq=False)
class SphericalWeight:
    """A dominant lattice weight: nonnegative integer coordinates in the
    fundamental spherical weight basis, together with the realized vector."""

    coeffs: tuple[int, ...]
    vector: np.ndarray

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise ValueError("weight coefficients must be nonnegative")
        object.__setattr__(self, "vector", as_vector(self.vector, len(self.coeffs)))


# ---------------------------------------------------------------------------
# the spec stage: every argument check, and the root length classes in
# closed form, without realizing a root
# ---------------------------------------------------------------------------

_TYPES = ("A", "B", "C", "D", "BC", "G2", "F4")
# the largest metric scale: every type builds at 1e306, but from about 1e307
# twice a squared root length, or a root times a fundamental weight, overflows
_MAX_METRIC_SCALE = 1e300


def _class_table(t: str, r: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Labels and sizes of the root length classes of type ``t`` at rank
    ``r``, shortest first, for the coordinates of
    :func:`_positive_roots_standard` (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Plates I-IX)."""
    if t == "A":  # e_i - e_j, i < j <= r
        return ("all",), (r * (r + 1) // 2,)
    if t in ("B", "C", "D") and r < 2:
        raise ValueError(f"type {t} requires rank >= 2 (use A for rank 1)")
    if t == "B":  # e_i; e_i +- e_j
        return ("short", "long"), (r, r * (r - 1))
    if t == "C":  # e_i +- e_j; 2 e_i
        return ("short", "long"), (r * (r - 1), r)
    if t == "D":  # e_i +- e_j
        return ("all",), (r * (r - 1),)
    if t == "BC":  # e_i; e_i +- e_j, absent at rank 1; 2 e_i
        if r == 1:
            return ("short", "long"), (1, 1)
        return ("short", "long", "double"), (r, r * (r - 1), r)
    if t == "G2":
        if r != 2:
            raise ValueError("G2 has rank 2")
        return ("short", "long"), (3, 3)
    if r != 4:
        raise ValueError("F4 has rank 4")
    return ("short", "long"), (12, 12)  # e_i and (+-1, +-1, +-1, +-1)/2; e_i +- e_j


def _aliases(t: str, labels: tuple[str, ...]) -> dict[str, str]:
    """Other names a user may give a class: any name for a lone class,
    "all" for the short class of two, and "double" for the doubled long
    class of BC at rank 1."""
    if labels == ("all",):
        return {"short": "all", "long": "all"}
    if labels == ("short", "long"):
        return {"all": "short", "double": "long"} if t == "BC" else {"all": "short"}
    return {}


def _resolve_mults(labels, aliases, multiplicities) -> list[float]:
    """Map user-supplied class labels onto the length classes."""
    given = dict(multiplicities)
    resolved: list[float] = []
    for lab in labels:
        hits = [k for k in given if k == lab or aliases.get(k) == lab]
        if not hits:
            raise ValueError(f"missing multiplicity for root class {lab!r}")
        if len(hits) > 1:
            raise ValueError(f"conflicting multiplicities for root class {lab!r}")
        m = float(given.pop(hits[0]))
        if not (m > 0 and math.isfinite(m)):
            raise ValueError("multiplicities must be positive and finite")
        resolved.append(m)
    if given:
        raise ValueError(f"unknown root class labels: {sorted(given)}")
    return resolved


@dataclass(frozen=True)
class RootSpec:
    """A checked request for a standard realization: the root length
    classes, shortest first, with their labels, sizes and multiplicities."""

    type_label: str
    rank: int
    labels: tuple[str, ...]
    sizes: tuple[int, ...]
    mults: tuple[float, ...]
    geometric: bool
    metric_scale: float

    @property
    def dimension(self) -> float:
        """rank + total multiplicity, as :func:`dimension` gives it for the
        built system."""
        return self.rank + sum(n * m for n, m in zip(self.sizes, self.mults))


def root_spec(
    type_label: str,
    rank: int,
    multiplicities: Mapping[str, float],
    *,
    metric_scale: float = 1.0,
    geometric: bool | None = None,
) -> RootSpec:
    """Check the arguments of :func:`build_root_system`, raising the error it
    raises, and return the root length classes without realizing a root."""
    t = str(type_label).upper()
    if t not in _TYPES:
        raise ValueError(f"unknown root system type {type_label!r}")
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    if not (metric_scale > 0 and math.isfinite(metric_scale)):
        raise ValueError("metric_scale must be positive")
    if metric_scale > _MAX_METRIC_SCALE:
        raise ValueError(f"metric_scale must be at most {_MAX_METRIC_SCALE:g}")
    labels, sizes = _class_table(t, rank)
    mults = _resolve_mults(labels, _aliases(t, labels), multiplicities)
    if geometric is None:
        geometric = _integral(mults)
    if geometric:
        # only the short class of BC has its doubles in the system
        _check_geometric(mults, [t == "BC"] + [False] * (len(mults) - 1))
    return RootSpec(t, rank, labels, sizes, tuple(mults), geometric, metric_scale)


# ---------------------------------------------------------------------------
# standard realizations
# ---------------------------------------------------------------------------


def _positive_roots_standard(t: str, r: int) -> tuple[np.ndarray, int]:
    """Positive roots of a type and rank that :func:`root_spec` accepted, in
    classical coordinates, class by class in the order and with the sizes
    that :func:`_class_table` gives.

    Returns (roots, ambient_dim); for type A the ambient dimension is
    rank + 1 and the span is the sum-zero hyperplane.
    """
    if t == "G2":
        a1 = np.array([1.0, 0.0])
        a2 = np.array([-1.5, 0.5 * math.sqrt(3.0)])
        return np.array([a1, a1 + a2, 2 * a1 + a2, a2, 3 * a1 + a2, 3 * a1 + 2 * a2]), 2
    d = r + 1 if t == "A" else r
    unit = np.eye(d)
    i, j = np.nonzero(np.arange(d)[:, None] < np.arange(d))  # i < j, row by row
    ei, ej = unit[i], unit[j]
    if t == "A":  # e_i - e_j, i < j, in this order: the first rank + 1 span
        return ei - ej, d
    pm = np.concatenate([ei - ej, ei + ej])
    if t == "F4":
        halves = 0.5 * np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=3)])
        return np.concatenate([unit, halves, pm]), d
    families = {"B": (unit, pm), "C": (pm, 2.0 * unit), "D": (pm,),
                "BC": (unit, pm, 2.0 * unit)}[t]
    return np.concatenate(families), d


def _simple_standard(t: str, r: int) -> list[int]:
    """Rows of the simple roots among :func:`_positive_roots_standard`'s, as
    Bourbaki's plates give them: e_i - e_{i+1}, then the type's last ones."""
    if t == "G2":
        return [0, 3]  # a1 and a2
    d = r + 1 if t == "A" else r
    # the row of e_i - e_{i+1} among the pairs i < j, row by row
    steps = [i * (2 * d - i - 1) // 2 for i in range(d - 1)]
    pairs = d * (d - 1) // 2
    if t == "A":
        return steps
    if t == "C":  # 2 e_r, after the e_i +- e_j
        return steps + [2 * pairs + r - 1]
    if t == "D":  # e_{r-1} + e_r
        return steps + [pairs + steps[-1]]
    if t == "F4":  # e2 - e3, e3 - e4, e4 and (e1 - e2 - e3 - e4)/2, after the e_i and halves
        return [12 + steps[1], 12 + steps[2], 3, 11]
    return [r + k for k in steps] + [r - 1]  # B and BC: e_r, before the e_i +- e_j


def build_root_system(
    type_label: str,
    rank: int,
    multiplicities: Mapping[str, float],
    *,
    metric_scale: float = 1.0,
    geometric: bool | None = None,
) -> RootSystem:
    """Construct the standard realization of a classical family.

    ``multiplicities`` maps root length classes to values: "all" for the
    single-class types, "short"/"long" for two classes, and additionally
    "double" for the doubled class of BC systems of rank >= 2. The longest
    root is normalized to squared length 2 * metric_scale. The arguments
    are checked by :func:`root_spec`. The roots come class by class in
    :func:`_class_table` order, so each class's multiplicity goes to its
    block of roots by position; the roots are then sorted
    lexicographically.
    """
    spec = root_spec(type_label, rank, multiplicities,
                     metric_scale=metric_scale, geometric=geometric)
    return _build(spec)


def _build(spec: RootSpec) -> RootSystem:
    """:func:`build_root_system` after its checks, on a spec that
    :func:`root_spec` returned. The structure comes from the class table,
    not from matching: a standard realization with one multiplicity per
    length class has no duplicate root, is closed under its Weyl group and
    has Weyl invariant multiplicities, and :func:`root_spec` has checked
    the geometric rule."""
    rank = spec.rank
    roots, d = _positive_roots_standard(spec.type_label, rank)
    if d > rank:
        # isometric coordinates on the span: only type A has d > rank, and
        # its first roots e0 - ej span the sum-zero hyperplane
        q, _ = np.linalg.qr(roots[: rank + 1].T)
        roots = roots @ q[:, :rank]
        # canonical column signs (QR sign conventions vary)
        for k in range(rank):
            col = roots[:, k]
            nz = col[np.abs(col) > 1e-9]
            if nz.size and nz[0] < 0:
                roots[:, k] = -col

    # ordered before scaling, so that the order holds at every metric scale
    order = np.lexsort(np.round(roots, 9).T[::-1])  # first column first
    roots = roots[order]
    mults = np.repeat(spec.mults, spec.sizes)[order]
    longest = float(np.einsum("ij,ij->i", roots, roots).max())
    roots = roots * math.sqrt(2.0 * spec.metric_scale / longest)
    # class table rows, carried through the sort: only BC has doubles, the
    # 2 e_i of its last block for the e_i of its first
    n = len(roots)
    at = np.empty_like(order)
    at[order] = np.arange(n)
    half, double = np.full((2, n), -1, dtype=np.intp)
    if spec.type_label == "BC":
        double[at[:rank]] = at[n - rank:]
        half[at[n - rank:]] = at[:rank]
    simple = at[_simple_standard(spec.type_label, rank)].tolist()
    return RootSystem._standard(rank, roots, mults, spec.geometric, half, double, simple)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def dimension(rs: RootSystem) -> float:
    """rank + total multiplicity; the manifold dimension for geometric data."""
    return rs.rank + float(np.sum(rs.mults))


def _realize(mus, coeffs: np.ndarray) -> np.ndarray:
    """The vectors sum_k coeffs[:, k] mu_k, one row per row of ``coeffs``,
    added left to right from zeros, one coefficient at a time."""
    vecs = np.zeros((len(coeffs), len(mus)))
    with np.errstate(over="ignore"):  # an overflowing vector fails its caller's check
        for k, mu in enumerate(mus):
            vecs += coeffs[:, k:k + 1] * mu
    return vecs


def spherical_weight(rs: RootSystem, coeffs: Sequence[int]) -> SphericalWeight:
    """Realize the dominant weight with the given lattice coordinates."""
    if len(coeffs) != rs.rank:
        raise ValueError(f"expected {rs.rank} coefficients, got {len(coeffs)}")
    ints = []
    for c in coeffs:
        try:
            finite = math.isfinite(c)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError("weight coefficients must fit a finite float")
        if c != int(c):
            raise ValueError("weight coefficients must be integers")
        if c < 0:
            raise ValueError("weight coefficients must be nonnegative")
        ints.append(int(c))
    vec = _realize(rs.fundamental_weights, np.array([ints], dtype=float))[0]
    return SphericalWeight(coeffs=tuple(ints), vector=vec)


def dominant_weights(rs: RootSystem, max_coeff: int) -> np.ndarray:
    """All dominant weights with coordinates in {0, ..., max_coeff}, as one
    read-only (n, rank) integer array of coordinates, the last running
    fastest; :func:`spherical_weight` realizes a row."""
    if max_coeff < 0:
        raise ValueError("max_coeff must be nonnegative")
    coeffs = np.indices((max_coeff + 1,) * rs.rank).reshape(rs.rank, -1).T
    coeffs.flags.writeable = False
    return coeffs


def rho_pairing_identity(rs: RootSystem, j: int) -> tuple[float, float]:
    """Both sides of <rho, alpha_j> = (m_j/2 + m_{2 alpha_j}) <alpha_j, alpha_j>.

    The identity holds exactly because the reflection in a simple root
    permutes the remaining positive roots; callers assert near-equality.
    """
    if not 0 <= j < len(rs._simple_idx):
        raise IndexError(f"simple root index {j} out of range")
    i = rs._simple_idx[j]
    a = rs.roots[i]
    lhs = float(rs.rho @ a)
    k = rs._double[i]
    rhs = (0.5 * rs.mults[i] + (rs.mults[k] if k >= 0 else 0.0)) * float(a @ a)
    return lhs, rhs


def rescale(rs: RootSystem, c: float) -> RootSystem:
    """Rescale the metric so every pairing <x, y> is multiplied by c."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("scale factor must be positive")
    # the metric scale is half the longest squared root length; a build's is
    # its metric_scale to within a few ulps, which the bound lets pass
    longest = float(np.einsum("ij,ij->i", rs.roots, rs.roots).max())
    if c * 0.5 * longest > _MAX_METRIC_SCALE * (1.0 + 1e-12):
        raise ValueError(f"rescaled metric scale must be at most {_MAX_METRIC_SCALE:g}")
    # scaling moves no half, double or simple root: no matching
    return RootSystem._standard(rs.rank, rs.roots * math.sqrt(c), rs.mults, rs.geometric,
                                rs._half, rs._double, list(rs._simple_idx))
