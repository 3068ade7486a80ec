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
      candidate normals are no longer orthogonal to their rows;
    - t-parity-first-row: `_t_walk` tests only the points of T's first
      row before it walks T, so a T that is odd only across two rows
      (the golden `pair-odd` input) is walked as even;
    - t-parity-trusted: `_t_walk` takes an odd T's first tuple as odd
      without testing it;
    - rank-n-kept: `_union_rank` capped at n−1, so that the walk keeps
      the tuples of rank n;
    - module-memo: one module-level memo shared by every `LambdaTuple`
      the engine makes, in place of the per-call one.  The golden reports
      do not change under it, so only the per-call count test sees it;
    - hull-rank-fallback-dropped: `build_newton`'s facet test keeps only
      the bit test of the candidate's own subset, so a facet parallel to
      the subset that found its normal is lost;
    - vertex-lp-sum-row-dropped: `_is_extreme` without its Σλ = 1 row,
      so a point in the cone of the others and the rays is no vertex;
    - null-line-negated: `null_line` negated as a whole.  `_facets` tries
      both ±q, so the hull is the same under it: only the orientation
      pin of `test_exact_numeric` sees it, and the mutant is applied at
      that test's binding as well as the hull's;
    - parity-minus-dropped: the parity form's i^{|T|} read off
      [1, i, 1, i], which only a term with |T| ≡ 2 or 3 (mod 4) shows;
    - sign-groups-sin: the sign-group form with sin in place of cos.

A row's first entry is the module, or the modules, whose binding of the
target it patches.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from click.testing import CliRunner

import test_cli
import test_decide_general
import test_engine
import test_exact_numeric
import test_golden_reports
import test_newton_poly
import test_oscillatory
import test_parity
from nh import cli, engine, newton_poly, oscillatory, parity
from nh.exact_numeric import StrictSystem, unit
from nh.parity import odd_witness

_t_walk = engine._t_walk
_serve = cli._serve
_parity_masks = parity.parity_masks
_null_line = newton_poly.null_line
_facets = newton_poly._facets
_SignSum = oscillatory._SignSum
_union_rank = engine._union_rank
_LambdaTuple = engine.LambdaTuple


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


def _null_line_negated(rows, n):
    line = _null_line(rows, n)
    return line and tuple(-x for x in line)


def _facets_without_rank_fallback(candidates, layouts, n, spans):
    """`_facets` as `build_newton` calls it (one layout), with its facet
    test cut down to the bit test of the candidate's own subset."""
    if len(layouts) == 1:
        def spans(masks, own):
            return not own & ~masks[0]
    return _facets(candidates, layouts, n, spans)


def _is_extreme_without_sum_row(p, others, rays):
    """`newton_poly._is_extreme` without its Σλ = 1 row: p is taken as a
    vertex only when it is off the cone of the other points and rays."""
    gens = list(others) + list(rays)
    eqs = tuple((tuple(g[coord] for g in gens), x)
                for coord, x in enumerate(p))
    weak = tuple((unit(len(gens), j), 0) for j in range(len(gens)))
    return newton_poly.solve_strict(StrictSystem(
        dim=len(gens), equalities=eqs, weak=weak)) is None


class _ParityWithoutMinus(_SignSum):
    """The parity form's i^{|T|} read off [1, i, 1, i]: every term's
    coefficient loses its minus sign."""

    def __init__(self, monomials, n):
        super().__init__(monomials, n)
        if self.parity and not self.empty:
            self.coef = abs(self.coef)


class _GroupsWithSin(_SignSum):
    """The sign-group form with sin in place of cos in the real part."""

    def bind(self, amps):
        if self.parity:
            return super().bind(amps)
        mix = amps[:, None] * self.sgn

        def group_form(mono):
            sin = np.sin(mono @ mix)
            return sin @ self.gw, sin @ self.gw
        return group_form


def _t_walk_with(t_points, trusted: bool):
    """`engine._t_walk` with T's own parity test on `t_points(the rows'
    supports)`, and with `trusted`, an odd T's first tuple taken as odd
    untested."""
    def walk(lam, t):
        key = ("lo", *(lam.lambdas[nu].points for nu in t))
        if key not in lam._memo:
            walked, odd = [], None
            even = engine.is_even(t_points(key[1:]))
            for ft in engine.enumerate_lo_tuples(lam, t):
                walked.append(ft)
                if not even and ((trusted and len(walked) == 1)
                                 or not engine.is_even(ft.union_lambda())):
                    odd = len(walked) - 1
                    break
            lam._memo[key] = (t, walked, odd)
        return lam._memo[key]
    return walk


def _union_rank_capped(dim, levels, n):
    return min(_union_rank(dim, levels, n), n - 1)


_MODULE_MEMO: dict = {}


class _ModuleMemoTuple(_LambdaTuple):
    def __init__(self, lambdas, spec, memo=None):
        super().__init__(lambdas, spec, _MODULE_MEMO)


def _case(test, i: int) -> tuple:
    """The i-th parameter set of a test's `parametrize` mark."""
    return test.pytestmark[0].args[1][i]


def _with_monkeypatch(test):
    def run(tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            test(mp, tmp_path)
    return run


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
    "test_newton_poly.py::test_worked_example_face_counts":
        lambda tmp_path: test_newton_poly.test_worked_example_face_counts(),
    "test_newton_poly.py::test_mixed_local_global":
        lambda tmp_path: test_newton_poly.test_mixed_local_global(),
    "test_newton_poly.py::test_hull_facet_test_ranks_only_faces_off_the_"
    "subset": _with_monkeypatch(
        lambda mp, tmp_path: test_newton_poly.
        test_hull_facet_test_ranks_only_faces_off_the_subset(mp)),
    "test_exact_numeric.py::test_null_line_is_the_nullspace_line":
        lambda tmp_path: test_exact_numeric.
        test_null_line_is_the_nullspace_line(),
    **{"test_oscillatory.py::test_sign_group_kernel_matches_complex_exp"
       f"[{case}]": lambda tmp_path, i=i: test_oscillatory.
       test_sign_group_kernel_matches_complex_exp(*_case(
           test_oscillatory.test_sign_group_kernel_matches_complex_exp, i))
       for i, case in ((0, "3-monos0-amps0"), (1, "1-monos1-amps1"))},
    **{f"test_oscillatory.py::test_lattice_phase_matches_complex_exp[{case}]":
       lambda tmp_path, i=i: test_oscillatory.
       test_lattice_phase_matches_complex_exp(*_case(
           test_oscillatory.test_lattice_phase_matches_complex_exp, i))
       for i, case in ((1, "2-points1-False"), (4, "3-points4-False"))},
    **{"test_decide_general.py::test_one_parity_test_per_t_support"
       f"[{case}]": _with_monkeypatch(
           lambda mp, tmp_path, case=case: test_decide_general.
           test_one_parity_test_per_t_support(case, mp))
       for case in ("frustum", "pair-odd")},
    "test_decide_general.py::test_no_memo_outlives_a_call":
        _with_monkeypatch(
            lambda mp, tmp_path: test_decide_general.
            test_no_memo_outlives_a_call(
                test_decide_general.counting(mp), mp, tmp_path)),
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
    "t-parity-first-row": (
        engine, "_t_walk",
        _t_walk_with(lambda rows: rows[0] if rows else (), False), [
            GOLDEN,
            "test_decide_general.py::test_one_parity_test_per_t_support"
            "[pair-odd]"]),
    "t-parity-trusted": (
        engine, "_t_walk",
        _t_walk_with(lambda rows: itertools.chain(*rows), True), [
            GOLDEN,
            *("test_decide_general.py::test_one_parity_test_per_t_support"
              f"[{case}]" for case in ("frustum", "pair-odd"))]),
    "rank-n-kept": (engine, "_union_rank", _union_rank_capped, [
        GOLDEN,
        "test_engine.py::test_scan_stops_at_the_first_odd_t[worked-pair]"]),
    "module-memo": (engine, "LambdaTuple", _ModuleMemoTuple, [
        "test_decide_general.py::test_no_memo_outlives_a_call"]),
    "hull-rank-fallback-dropped": (
        newton_poly, "_facets", _facets_without_rank_fallback, [
            GOLDEN, "test_newton_poly.py::test_worked_example_facets",
            "test_newton_poly.py::test_worked_example_face_counts",
            "test_newton_poly.py::test_hull_facet_test_ranks_only_faces_off_"
            "the_subset"]),
    "vertex-lp-sum-row-dropped": (
        newton_poly, "_is_extreme", _is_extreme_without_sum_row, [
            GOLDEN, "test_newton_poly.py::test_mixed_local_global",
            "test_newton_poly.py::test_hull_facet_test_ranks_only_faces_off_"
            "the_subset"]),
    "null-line-negated": (
        (newton_poly, test_exact_numeric), "null_line", _null_line_negated,
        ["test_exact_numeric.py::test_null_line_is_the_nullspace_line"]),
    "parity-minus-dropped": (oscillatory, "_SignSum", _ParityWithoutMinus, [
        "test_oscillatory.py::test_sign_group_kernel_matches_complex_exp"
        f"[{case}]" for case in ("3-monos0-amps0", "1-monos1-amps1")]),
    "sign-groups-sin": (oscillatory, "_SignSum", _GroupsWithSin, [
        f"test_oscillatory.py::test_lattice_phase_matches_complex_exp[{case}]"
        for case in ("2-points1-False", "3-points4-False")]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch, tmp_path):
    modules, target, mutant, killers = MUTANTS[name]
    for module in modules if isinstance(modules, tuple) else (modules,):
        monkeypatch.setattr(module, target, mutant)
    survivors = []
    for killer in killers:
        try:
            KILLERS[killer](tmp_path)
        except AssertionError:
            continue
        survivors.append(killer)
    assert survivors == [], f"{name} survives {survivors}"
