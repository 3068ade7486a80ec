"""Mutants, each a `monkeypatch` of one function at the module binding its
callers read (no source rewrite), and the fast tests that must fail under
it.

`test_mutant_is_killed` applies a mutant, calls each of its killers
in-process and requires every one of them to raise AssertionError.  A
killer that passes under its mutant has lost its teeth: the scan could
regress that way with the suite still green.

    - twin-walks-uncounted: a T that reads its walk from the memo under
      another T of the same rows' supports (a twin row in its class, or
      other rows in an earlier class) adds nothing to `lo_tuples` while
      no tuple of it is odd;
    - all-empty-uncounted: the all-empty tuple, scanned last on a bounded
      verdict, is left out of `lo_tuples`;
    - least-odd-tuple: the verdict is the lexicographically least of the
      T's first odd tuples, counted by the walked tuples that sort before
      it, instead of the first odd tuple of the first T in
      `component_subsets` order;
    - exit-always-bounded: `nh.cli._serve`, the one path of the problem
      subcommands, exits 0 whatever the verdict;
    - reversed-parity-mask: `nh.parity.parity_masks` puts coordinate k at
      bit n−1−k.  That permutes the coordinates of every mask and fixes
      the all-odd target, so no evenness verdict, odd witness or odd
      subset changes: only the encoding test sees it;
    - null-line-sign: `null_line` as `nh.newton_poly` calls it, with the
      middle entry of the n = 3 cross product negated, so the hull's
      candidate normals are no longer orthogonal to their rows.
"""

import dataclasses
import math

import pytest
from click.testing import CliRunner

import test_cli
import test_engine
import test_golden_reports
import test_newton_poly
import test_parity
from nh import cli, engine, newton_poly, parity
from nh.parity import odd_witness

_t_walk = engine._t_walk
_serve = cli._serve
_parity_masks = parity.parity_masks
_null_line = newton_poly.null_line


def _twin_walks_uncounted(lam, t):
    walker, walked, odd = _t_walk(lam, t)
    return walker, (walked if walker == t or odd is not None else []), odd


def _all_empty_uncounted(lam, t):
    return (t, [], None) if not t else _t_walk(lam, t)


def _least_odd_tuple(lam):
    walks = [(t, *_t_walk(lam, t))
             for t in engine.component_subsets(lam.d) if t]
    if all(odd is None for *_, odd in walks):
        return None, None, sum(len(w) for _, _, w, _ in walks) + len(
            _t_walk(lam, ())[1])
    empties = tuple(p.empty_face() for p in lam.polyhedra)

    def key(t, walker, ft):
        return [f.index for f in engine._placed(
            empties, t, [ft.faces[nu] for nu in walker])]
    t, walker, walked, odd = min(
        (w for w in walks if w[3] is not None),
        key=lambda w: key(w[0], w[1], w[2][w[3]]))
    bound = key(t, walker, walked[odd])
    first = dataclasses.replace(walked[odd], faces=engine._placed(
        empties, t, [walked[odd].faces[nu] for nu in walker]))
    count = 1 + sum(key(u, wu, ft) < bound
                    for u, wu, ws, _ in walks for ft in ws)
    return first, odd_witness(first.union_lambda()), count


def _exit_always_bounded(fn, input_path, fmt, opts):
    def run(problem, **kwargs):
        out, _code, rows = fn(problem, **kwargs)
        return out, cli.EXIT_BOUNDED, rows
    _serve(run, input_path, fmt, opts)


def _reversed_parity_masks(points):
    return [sum((m >> k & 1) << (len(p) - 1 - k) for k in range(len(p)))
            for p, m in zip(points, _parity_masks(points))]


def _null_line_sign(rows, n):
    if n != 3:
        return _null_line(rows, n)
    (a0, a1, a2), (b0, b1, b2) = rows
    x = [a1 * b2 - a2 * b1, a0 * b2 - a2 * b0, a0 * b1 - a1 * b0]
    g = math.gcd(*x)
    return tuple(v // g for v in x) if g else None


def _every_subcommand(command):
    return lambda tmp_path: (
        test_cli.test_every_subcommand_reads_runs_and_emits(
            CliRunner(), tmp_path, command))


# the killers, by test id, each called with the mutant test's tmp_path
KILLERS = {
    "test_golden_reports.py::test_reports_are_the_golden_ones":
        test_golden_reports.test_reports_are_the_golden_ones,
    "test_cli.py::test_decide_general_on_a_graph_with_unit_monomials":
        lambda tmp_path: test_cli.
        test_decide_general_on_a_graph_with_unit_monomials(
            CliRunner(), tmp_path),
    **{f"test_engine.py::test_scan_stops_at_the_first_odd_t[{case}]":
       lambda tmp_path, case=case:
       test_engine.test_scan_stops_at_the_first_odd_t(case)
       for case in ("n2-pair-first", "n4-pair-first", "worked-pair")},
    "test_cli.py::test_decide_bounded_and_unbounded":
        lambda tmp_path: test_cli.test_decide_bounded_and_unbounded(
            CliRunner(), tmp_path),
    **{f"test_cli.py::test_every_subcommand_reads_runs_and_emits[{cmd}]":
       _every_subcommand(cmd)
       for cmd in ("decide", "decide-graph", "decide-general")},
    "test_parity.py::test_parity_masks":
        lambda tmp_path: test_parity.test_parity_masks(),
    "test_newton_poly.py::test_worked_example_facets":
        lambda tmp_path: test_newton_poly.test_worked_example_facets(),
}

GOLDEN = "test_golden_reports.py::test_reports_are_the_golden_ones"
MUTANTS = {
    "twin-walks-uncounted": (engine, "_t_walk", _twin_walks_uncounted, [
        GOLDEN,
        "test_cli.py::test_decide_general_on_a_graph_with_unit_monomials"]),
    "all-empty-uncounted": (engine, "_t_walk", _all_empty_uncounted, [
        GOLDEN,
        "test_cli.py::test_decide_general_on_a_graph_with_unit_monomials",
        "test_engine.py::test_scan_stops_at_the_first_odd_t[worked-pair]"]),
    "least-odd-tuple": (engine, "_lo_scan", _least_odd_tuple, [
        GOLDEN,
        "test_engine.py::test_scan_stops_at_the_first_odd_t[n2-pair-first]",
        "test_engine.py::test_scan_stops_at_the_first_odd_t[n4-pair-first]"]),
    "exit-always-bounded": (cli, "_serve", _exit_always_bounded, [
        GOLDEN,
        "test_cli.py::test_decide_bounded_and_unbounded",
        *(f"test_cli.py::test_every_subcommand_reads_runs_and_emits[{cmd}]"
          for cmd in ("decide", "decide-graph", "decide-general"))]),
    "reversed-parity-mask": (parity, "parity_masks", _reversed_parity_masks,
                             ["test_parity.py::test_parity_masks"]),
    "null-line-sign": (newton_poly, "null_line", _null_line_sign, [
        GOLDEN, "test_newton_poly.py::test_worked_example_facets"]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch, tmp_path):
    module, target, mutant, killers = MUTANTS[name]
    monkeypatch.setattr(module, target, mutant)
    survivors = []
    for killer in killers:
        try:
            KILLERS[killer](tmp_path)
        except AssertionError:
            continue
        survivors.append(killer)
    assert survivors == [], f"{name} survives {survivors}"
