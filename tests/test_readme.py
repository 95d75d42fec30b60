"""The README's "Library" section against the package: its code block
runs and returns the values its comments give, and its export listing
names exactly what the package exports."""

import ast
import re
import types
from pathlib import Path

import pytest

import chamberq
from chamberq import asymquad, cli, hcfun, rootsys

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_spaces.txt").write_text(
        cli.emit(cli.default_catalog(), "text"), encoding="utf-8"
    )
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                   namespace)
        # a bare expression carries its value as the comment's first field;
        # the digits printed there are not all exact, so compare values
        comment = lines[stmt.lineno - 1].partition("#")[2]
        want = ast.literal_eval(comment.split(",")[0].strip())
        if isinstance(want, bool):
            assert got is want
        else:
            assert got == pytest.approx(want, rel=1e-12)
        checked += 1
    assert checked


def test_readme_library_lists_every_export():
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (rootsys, hcfun, asymquad, cli)}
    listed = set()
    for mod_name, names in re.findall(r"^- `(\w+)`: (.*)$", _library_section(), re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert name in modules[mod_name].__all__, (mod_name, name)
            listed.add(name)
    public = {k for k, v in vars(chamberq).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert listed == public
