"""Layout guards for `src/nh`, and for the imports of `tests/`.

- No code that only the tests call: every top-level function and class
  of the package must be referenced somewhere in the package other than
  inside its own definition.  A function registered as a subcommand by
  `@main.command` counts as referenced; `main` itself is the entry point.
  Test oracles and fixtures live under `tests/`.
- Imports sit at module level, and no module imports another module's
  private (underscore) names.  The one exception is
  `from . import oscillatory as osc` at the top of the three probe
  subcommands of `cli.py`, so that the exact subcommands never load
  numpy.
- Every name a module of the package or of `tests/` imports is used in
  that module.
- `nh verify` checks a certificate without the engine's hull, face-lattice
  or LP code.
- `cli.py` calls `emit_report` and `_run` from two places only: `_serve`,
  the one read → run → emit path of the subcommands that read a problem,
  and `verify`, which reads a certificate.  A new subcommand goes through
  `_serve` instead of growing its own copy of that path.
"""

import ast
import importlib
from pathlib import Path

import nh
from nh.cli import verify_certificate
from test_acceptance import _collect_certificates

ALLOWED = {"main"}


def _registered(node) -> bool:
    """Decorated by `main.command(...)`: a click subcommand."""
    return any(isinstance(dec, ast.Call)
               and isinstance(dec.func, ast.Attribute)
               and dec.func.attr == "command"
               and isinstance(dec.func.value, ast.Name)
               and dec.func.value.id == "main"
               for dec in getattr(node, "decorator_list", ()))


def _names(node) -> set:
    """Names a subtree loads or reads as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _trees(directory: Path = Path(nh.__file__).parent) -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def test_every_definition_has_a_caller_in_the_package():
    trees = _trees()
    # names referenced per top-level statement, so a definition's own body
    # can be left out when asking who references it
    refs = [(fname, stmt, _names(stmt))
            for fname, tree in trees.items() for stmt in tree.body]
    unused = []
    for fname, stmt, _ in refs:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in ALLOWED or _registered(stmt):
            continue
        if not any(stmt.name in names
                   for _file, other, names in refs
                   if other is not stmt):
            unused.append(f"{fname}:{stmt.name}")
    assert unused == [], f"only tests (or nobody) call: {unused}"


PROBES = {"probe_divergence", "probe_sum", "probe_decay"}


def _lazy_probe_import(fname: str, func, stmt) -> bool:
    """`from . import oscillatory as osc` as the first statement of one of
    the probe subcommands of `cli.py`."""
    return (fname == "cli.py" and func.name in PROBES and _registered(func)
            and func.body[1:2] == [stmt]     # body[0] is the docstring
            and isinstance(stmt, ast.ImportFrom) and stmt.level == 1
            and stmt.module is None
            and [(a.name, a.asname) for a in stmt.names]
            == [("oscillatory", "osc")])


def test_imports_are_module_level_and_public():
    bad = set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad.update(f"{fname}:{sub.lineno}: import inside {node.name}"
                           for sub in ast.walk(node)
                           if isinstance(sub, (ast.Import, ast.ImportFrom))
                           and not _lazy_probe_import(fname, node, sub))
            elif isinstance(node, ast.ImportFrom) and node.level:
                bad.update(f"{fname}:{node.lineno}: private {alias.name}"
                           for alias in node.names
                           if alias.name.startswith("_")
                           and not alias.name.endswith("__"))
    assert sorted(bad) == []


def test_every_imported_name_is_used():
    unused = []
    trees = [(f"nh/{fname}", tree) for fname, tree in _trees().items()]
    trees += [(f"tests/{fname}", tree)
              for fname, tree in _trees(Path(__file__).parent).items()]
    for fname, tree in trees:
        used = _names(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) \
                    and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                unused.extend(
                    f"{fname}:{stmt.lineno}: {bound}"
                    for bound in ((alias.asname or alias.name).split(".")[0]
                                  for alias in stmt.names)
                    if bound not in used)
    assert unused == [], f"imported but unused: {unused}"


def test_cli_reports_from_serve_and_verify_only():
    tree = _trees()["cli.py"]
    for callee in ("emit_report", "_run"):
        callers = [stmt.name for stmt in tree.body
                   if isinstance(stmt, ast.FunctionDef)
                   for sub in ast.walk(stmt)
                   if isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Name)
                   and sub.func.id == callee]
        assert sorted(callers) == ["_serve", "verify"], (callee, callers)


def test_verify_builds_no_hull_lattice_or_lp(monkeypatch):
    certs = _collect_certificates()

    def forbidden(*args, **kwargs):
        raise AssertionError("the verify path reached hull/lattice/LP code")

    for module in ("nh.cli", "nh.engine", "nh.newton_poly",
                   "nh.exact_numeric"):
        mod = importlib.import_module(module)
        for name in ("build_newton", "enumerate_faces", "solve_strict"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    kinds = {("gl_matrix" in c, "graph_axes" in c) for c in certs}
    assert kinds == {(False, False), (True, False)}
    for i, cert in enumerate(certs):
        assert verify_certificate(cert) == [], i
