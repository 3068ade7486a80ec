"""Mutants of the lo-tuple scan, each a `monkeypatch` of one `nh.engine`
function (no source rewrite), and the fast tests that must fail under it.

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
      `component_subsets` order.
"""

import dataclasses

import pytest
from click.testing import CliRunner

import test_cli
import test_engine
import test_golden_reports
from nh import engine
from nh.parity import odd_witness

_t_walk = engine._t_walk


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
}

GOLDEN = "test_golden_reports.py::test_reports_are_the_golden_ones"
MUTANTS = {
    "twin-walks-uncounted": ("_t_walk", _twin_walks_uncounted, [
        GOLDEN,
        "test_cli.py::test_decide_general_on_a_graph_with_unit_monomials"]),
    "all-empty-uncounted": ("_t_walk", _all_empty_uncounted, [
        GOLDEN,
        "test_cli.py::test_decide_general_on_a_graph_with_unit_monomials",
        "test_engine.py::test_scan_stops_at_the_first_odd_t[worked-pair]"]),
    "least-odd-tuple": ("_lo_scan", _least_odd_tuple, [
        GOLDEN,
        "test_engine.py::test_scan_stops_at_the_first_odd_t[n2-pair-first]",
        "test_engine.py::test_scan_stops_at_the_first_odd_t[n4-pair-first]"]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch, tmp_path):
    target, mutant, killers = MUTANTS[name]
    monkeypatch.setattr(engine, target, mutant)
    survivors = []
    for killer in killers:
        try:
            KILLERS[killer](tmp_path)
        except AssertionError:
            continue
        survivors.append(killer)
    assert survivors == [], f"{name} survives {survivors}"
