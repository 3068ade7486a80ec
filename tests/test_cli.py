"""End-to-end tests for the command-line interface."""

import gc
import json
import subprocess
import sys

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper

from nh import __version__, engine
from nh import oscillatory as osc
from nh.cli import (
    EXIT_BOUNDED,
    EXIT_INPUT,
    EXIT_UNBOUNDED,
    InputError,
    ProblemInput,
    emit_report,
    main,
    parse_input,
    verify_certificate,
)

WORKED_PAIR = {
    "n": 3, "S": [1, 2, 3],
    "lambda": [[[0, 0, 2], [3, 3, 0]], [[0, 0, 3], [3, 2, 1]]],
    "mode": "decide",
}
ODD_POINT = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]], "mode": "decide"}
GLOBAL_PAIR = {"n": 2, "S": [], "lambda": [[[2, 2], [3, 3]]],
               "mode": "decide"}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    blob = json.dumps(WORKED_PAIR).encode()
    p1 = parse_input(blob)
    echoed = emit_report(p1.echo(), "json").encode()
    p2 = parse_input(echoed)
    assert p1.n == p2.n
    assert p1.spec == p2.spec
    assert [l.points for l in p1.lambdas] == [l.points for l in p2.lambdas]
    assert p1.mode == p2.mode


def test_parse_error_codes():
    cases = [
        ({"n": 2, "S": [1], "lambda": [[[1, -1]]]}, "E_NEG_EXPONENT"),
        ({"n": 2, "S": [3], "lambda": [[[1, 1]]]}, "E_S_RANGE"),
        ({"n": 2, "S": [1], "lambda": [[[1, 1]]],
          "coefficients": {"1:(1,1)": "0/1"}}, "E_ZERO_COEFF"),
        ({"n": 2, "S": [1], "lambda": [[[1, 1]]],
          "coefficients": {"1:(1,1)": "x"}}, "E_BAD_RATIONAL"),
        ({"n": 2, "lambda": []}, "E_MALFORMED"),
        ({"n": 2, "S": [1], "lambda": [[[1, 1]]], "mode": "nope"},
         "E_MALFORMED"),
    ]
    for payload, code in cases:
        with pytest.raises(InputError) as exc:
            ProblemInput(payload)
        assert exc.value.code == code, payload
    with pytest.raises(InputError) as exc:
        parse_input(b"{not json")
    assert exc.value.code == "E_MALFORMED"


def test_coefficients_default_to_one():
    p = ProblemInput({"n": 2, "S": [1, 2], "lambda": [[[1, 1], [2, 0]]],
                      "coefficients": {"1:(1,1)": "-3/2"}})
    poly = p.polynomial()
    assert poly.coefficients[(0, (1, 1))] == -1.5
    assert poly.coefficients[(0, (2, 0))] == 1
    # no coefficient map at all: probes default everything to +1
    p = ProblemInput(ODD_POINT)
    assert p.polynomial().coefficients[(0, (1, 1))] == 1


def test_coefficient_keys_naming_one_monomial_are_rejected(runner,
                                                           tmp_path):
    """Spaces inside a key are ignored, so these two keys name one
    monomial; neither value may win silently."""
    payload = dict(ODD_POINT, coefficients={"1:(1,1)": "1",
                                            "1: (1,1)": "-1"})
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_MALFORMED:" in res.output
    assert "'1:(1,1)' and '1: (1,1)'" in res.output


@pytest.mark.parametrize("index", [0, 3])
def test_coefficient_component_index_outside_1_to_d(runner, tmp_path,
                                                    index):
    """A key's component index outside 1..d is a malformed key, not an
    S entry out of range (`E_S_RANGE`)."""
    key = f"{index}:(1,1)"
    payload = {"n": 2, "S": [1], "lambda": [[[1, 1]], [[2, 0]]],
               "coefficients": {key: "1"}}
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_MALFORMED:" in res.output
    assert repr(key) in res.output


# ---------------------------------------------------------------------------
# input from stdin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [["--input", "-"], []])
def test_input_from_stdin(runner, args):
    res = runner.invoke(main, ["decide"] + args,
                        input='{"n":2,"S":[1,2],"lambda":[[[1,1]]]}')
    assert res.exit_code == EXIT_UNBOUNDED, res.output
    assert json.loads(res.stdout)["verdict"] == "unbounded"
    res = runner.invoke(main, ["verify"] + args, input=res.stdout)
    assert res.exit_code == EXIT_BOUNDED, res.output
    assert json.loads(res.stdout)["valid"] is True


# ---------------------------------------------------------------------------
# decide family
# ---------------------------------------------------------------------------

def test_decide_bounded_and_unbounded(runner, tmp_path):
    res = runner.invoke(main, ["decide", "--input",
                               _write(tmp_path, WORKED_PAIR)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    assert report["verdict"] == "bounded"
    assert report["lo_tuples"] > 0

    res = runner.invoke(main, ["decide", "--input",
                               _write(tmp_path, ODD_POINT, "odd.json")])
    assert res.exit_code == EXIT_UNBOUNDED
    report = json.loads(res.output)
    assert report["verdict"] == "unbounded"
    cert = report["certificate"]
    assert cert["odd_subset"] == [[1, 1]]
    assert verify_certificate(cert) == []


def test_decide_input_error_exit(runner, tmp_path):
    path = _write(tmp_path, {"n": 2, "S": [5], "lambda": [[[1, 1]]]})
    res = runner.invoke(main, ["decide", "--input", path])
    assert res.exit_code == EXIT_INPUT


@pytest.mark.parametrize("payload, code", [
    ({"n": 2, "S": [1], "lambda": [[[True, 1]]]}, "E_MALFORMED"),
    ({"n": 2.7, "S": [1], "lambda": [[[1, 1]]]}, "E_MALFORMED"),
    ({"n": 2, "S": [True], "lambda": [[[1, 1]]]}, "E_S_RANGE"),
])
def test_decide_rejects_non_integer_json(runner, tmp_path, payload, code):
    # JSON true loads as a bool, which Python counts as an int
    res = runner.invoke(main, ["decide", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert f"input error: {code}:" in res.output


def test_decide_rejects_zero_denominator(runner, tmp_path):
    payload = dict(ODD_POINT, coefficients={"1:(1,1)": "1/0"})
    res = runner.invoke(main, ["decide", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_BAD_RATIONAL:" in res.output


def test_cli_calls_leave_no_streams_alive(runner, tmp_path):
    def live_wrappers():
        gc.collect()
        return sum(isinstance(o, _NamedTextIOWrapper)
                   for o in gc.get_objects())

    path = _write(tmp_path, ODD_POINT)
    before = live_wrappers()
    for _ in range(50):
        res = runner.invoke(main, ["decide", "--input", path])
        assert res.exit_code == EXIT_UNBOUNDED
    assert live_wrappers() <= before


def test_decide_graph_forms(runner, tmp_path):
    single = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]]}
    res = runner.invoke(main, ["decide-graph", "--input",
                               _write(tmp_path, single)])
    assert res.exit_code == EXIT_UNBOUNDED

    full = {"n": 2, "S": [1, 2],
            "lambda": [[[1, 0]], [[0, 1]], [[2, 1], [1, 2]]]}
    res = runner.invoke(main, ["decide-graph", "--input",
                               _write(tmp_path, full, "full.json")])
    assert res.exit_code == EXIT_BOUNDED

    bad = {"n": 2, "S": [1, 2],
           "lambda": [[[1, 1]], [[0, 1]], [[2, 1]]]}
    res = runner.invoke(main, ["decide-graph", "--input",
                               _write(tmp_path, bad, "bad.json")])
    assert res.exit_code == EXIT_INPUT


GRAPH_ODD = [[5, 3], [6, 2]]           # the vertex (5,3) is all odd


@pytest.mark.parametrize("last", [GRAPH_ODD, [[1, 0]] + GRAPH_ODD,
                                  [[0, 1], [1, 0]] + GRAPH_ODD])
@pytest.mark.parametrize("full_form", [False, True])
def test_decide_graph_verify_round_trip(runner, tmp_path, last, full_form):
    """Unit monomials of Λ_{n+1} are dropped, in either input form: the
    certificate is a `decide` certificate on the unit-augmented tuple,
    while the report echoes the input as given."""
    blocks = [[[1, 0]], [[0, 1]], last] if full_form else [last]
    payload = {"n": 2, "S": [1, 2], "lambda": blocks}
    res = runner.invoke(main, ["decide-graph", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_UNBOUNDED
    report = json.loads(res.output)
    assert report["input"] == payload
    cert = report["certificate"]
    assert cert["lambda"] == [[[1, 0]], [[0, 1]], GRAPH_ODD]
    assert verify_certificate(cert) == []
    res = runner.invoke(main, ["verify", "--input",
                               _write(tmp_path, cert, "cert.json")])
    assert res.exit_code == EXIT_BOUNDED


def test_verify_graph_needs_unit_blocks(runner, tmp_path):
    """Λ₄ = {(0,1,1)} is odd only with the axis e₁, so the witness face
    of the unit block {e₁} is its vertex; with that block corrupted the
    face is not one the witness cuts out, and `verify` lists the failure."""
    payload = {"n": 3, "S": [1, 2, 3], "lambda": [[[0, 1, 1]]]}
    res = runner.invoke(main, ["decide-graph", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_UNBOUNDED
    cert = json.loads(res.output)["certificate"]
    assert cert["witness_faces"][0]["vertices"] == [[1, 0, 0]]
    assert verify_certificate(cert) == []
    cert["lambda"][0] = [[2, 0, 0]]
    assert verify_certificate(cert) == [
        "the component-1 face is not the one the overlap witness cuts out"]
    res = runner.invoke(main, ["verify", "--input",
                               _write(tmp_path, cert, "cert.json")])
    assert res.exit_code == EXIT_INPUT
    assert json.loads(res.output)["valid"] is False


def test_decide_general(runner, tmp_path):
    payload = {
        "n": 2, "S": [1, 2],
        "lambda": [[[1, 1]], [[1, 1], [2, 2]]],
        "coefficients": {"1:(1,1)": "1/1", "2:(1,1)": "1/1",
                         "2:(2,2)": "1/1"},
    }
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_UNBOUNDED
    report = json.loads(res.output)
    assert report["gl_class_count"] == 2
    cert = report["certificate"]
    assert "gl_matrix" in cert
    assert verify_certificate(cert) == []

    assert "depth_cap_hit" not in report


def test_decide_general_needs_coefficients(runner, tmp_path):
    """Row 2 is always P₂ − t·P₁, so it loses both of P₁'s monomials or
    neither: 2 classes, bounded.  Support arithmetic alone, dropping one
    monomial at a time, reached 4 classes and an unbounded verdict whose
    certificate `verify` rejected.  Without coefficients there is no P to
    decide."""
    payload = {
        "n": 2, "S": [2],
        "lambda": [[[2, 1], [3, 0], [3, 1]], [[0, 3], [2, 1]]],
        "coefficients": {"1:(2,1)": "1/1", "1:(3,0)": "1/1",
                         "1:(3,1)": "1/1", "2:(0,3)": "1/1",
                         "2:(2,1)": "1/1"},
    }
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    assert json.loads(res.output)["gl_class_count"] == 2
    del payload["coefficients"]
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload, "nocoef.json")])
    assert res.exit_code == EXIT_INPUT
    assert "E_MALFORMED" in res.output


def test_capped_class_search_says_no_bounded_verdict(runner, tmp_path,
                                                     monkeypatch):
    """A class search cut at its depth cap (here at depth 0, the input's
    own supports) exits 2 with E_DEPTH_CAP when every class it reached is
    bounded; an odd class found before the cap is still a verdict."""
    even = {"n": 2, "S": [1, 2], "lambda": [[[2, 0], [0, 2]], [[0, 2]]],
            "coefficients": {"1:(2,0)": "1/1", "1:(0,2)": "1/1",
                             "2:(0,2)": "1/1"}}
    odd = dict(ODD_POINT, coefficients={"1:(1,1)": "1/1"})
    even_path = _write(tmp_path, even, "even.json")
    odd_path = _write(tmp_path, odd, "odd.json")
    res = runner.invoke(main, ["decide-general", "--input", even_path])
    assert res.exit_code == EXIT_BOUNDED
    assert json.loads(res.output)["gl_class_count"] == 2
    monkeypatch.setattr(engine, "DEPTH_CAP_BASE", 0)
    res = runner.invoke(main, ["decide-general", "--input", even_path])
    assert res.exit_code == 2
    assert "E_DEPTH_CAP:" in res.output
    res = runner.invoke(main, ["decide-general", "--input", odd_path])
    assert res.exit_code == EXIT_UNBOUNDED


def test_decide_general_on_a_graph_with_unit_monomials(runner, tmp_path):
    """Λ = ({e₁},{e₂},{e₃},{e₁,e₂,e₃}): eight support classes with 536
    low-rank overlapping tuples between them, all even.  The product walk
    with one LP per leaf took seconds here."""
    payload = {
        "n": 3, "S": [1, 2, 3],
        "lambda": [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]],
                   [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
        "coefficients": {"1:(1,0,0)": "1/1", "2:(0,1,0)": "1/1",
                         "3:(0,0,1)": "1/1", "4:(1,0,0)": "-2/1",
                         "4:(0,1,0)": "1/1", "4:(0,0,1)": "3/1"},
    }
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    assert report["verdict"] == "bounded"
    assert report["lo_tuples"] == 536
    assert report["gl_class_count"] == 8


# ---------------------------------------------------------------------------
# faces / decompose
# ---------------------------------------------------------------------------

def test_faces_dump(runner, tmp_path):
    res = runner.invoke(main, ["faces", "--input",
                               _write(tmp_path, WORKED_PAIR)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    polys = report["polyhedra"]
    assert len(polys) == 2
    normals = sorted(tuple(f["normal"]) for f in polys[0]["facet_normals"])
    assert normals == [(0, 0, 1), (0, 1, 0), (0, 2, 3),
                       (1, 0, 0), (2, 0, 3)]
    assert len(polys[0]["faces"]) == 15
    for f in polys[0]["faces"]:
        if not f["is_empty"]:
            assert isinstance(f["S0"], list)


def test_decompose_with_dyadic_index(runner, tmp_path):
    payload = dict(WORKED_PAIR, mode="decompose", dyadic_index=[1, 1, 1])
    res = runner.invoke(main, ["decompose", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    assert report["lo_tuples"]
    for t in report["lo_tuples"]:
        assert t["union_even"] is True
        assert t["union_rank"] <= 2
        assert len(t["chain"]) == len(t["cap_generators"]) + 1
    assert report["dyadic_tuples"]


@pytest.mark.parametrize("index", [[1], [1, 1, 1, 1], "ab", [1, 1.5, 1],
                                   [True, 1, 1], None, [-1, 1, 1]])
def test_decompose_rejects_bad_dyadic_index(runner, tmp_path, index):
    payload = dict(WORKED_PAIR, mode="decompose", dyadic_index=index)
    res = runner.invoke(main, ["decompose", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_MALFORMED:" in res.output


# ---------------------------------------------------------------------------
# probes via CLI
# ---------------------------------------------------------------------------

def test_probe_divergence_csv(runner, tmp_path):
    payload = dict(ODD_POINT, mode="probe-divergence",
                   xi=[1.0], shrink_levels=[4, 5, 6, 7, 8])
    res = runner.invoke(main, ["probe-divergence", "--format", "csv",
                               "--input", _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    lines = res.output.strip().splitlines()
    assert lines[0] == "scale,value,bound"
    assert len(lines) == 6


def test_probe_divergence_rejects_bounded(runner, tmp_path):
    payload = {"n": 2, "S": [1, 2], "lambda": [[[2, 1]]],
               "mode": "probe-divergence"}
    res = runner.invoke(main, ["probe-divergence", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT


def test_probe_decay_json(runner, tmp_path):
    payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
               "mode": "probe-decay", "xi": [100.0], "k_max": 6}
    res = runner.invoke(main, ["probe-decay", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    assert len(report["table"]) == 7
    assert report["delta"] >= 0.0
    assert report["unconverged"] == 0


def test_probe_sum_small(runner, tmp_path):
    payload = {"n": 2, "S": [1, 2], "lambda": [[[2, 1]]],
               "mode": "probe-sum", "radius": 4, "xi": [0.5]}
    res = runner.invoke(main, ["probe-sum", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    assert report["max_sum"] == 0.0


PAIR_PROBE = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]], [[3, 0]]],
              "mode": "probe-sum", "radius": 2}


@pytest.mark.parametrize("extra, code", [
    ({"xi": [[0.5]]}, "E_XI"),               # shorter than d = 2
    ({"xi": [[0.5, float("nan")]]}, "E_XI"),
    ({"xi": [0.5, 0.25], "radius": -2}, "E_RADIUS"),
])
def test_probe_sum_rejects_bad_input(runner, tmp_path, extra, code):
    res = runner.invoke(main, ["probe-sum", "--input",
                               _write(tmp_path, dict(PAIR_PROBE, **extra))])
    assert res.exit_code == EXIT_INPUT
    assert f"input error: {code}:" in res.output


DECAY_PROBE = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
               "mode": "probe-decay", "xi": [100.0], "k_max": 2}


@pytest.mark.parametrize("command, payload, code", [
    ("probe-divergence", dict(ODD_POINT, shrink_levels=[]), "E_MALFORMED"),
    ("probe-divergence", dict(ODD_POINT, shrink_levels=[5]), "E_MALFORMED"),
    ("probe-divergence", dict(ODD_POINT, shrink_levels=[4, 4]),
     "E_MALFORMED"),
    ("probe-decay", dict(DECAY_PROBE, k_max=-3), "E_MALFORMED"),
    ("probe-decay", dict(DECAY_PROBE, ray=[1]), "E_MALFORMED"),
    ("probe-decay", dict(DECAY_PROBE, ray=["a", 1]), "E_MALFORMED"),
    ("probe-sum", dict(PAIR_PROBE, xi_count=0), "E_MALFORMED"),
    ("probe-sum", dict(PAIR_PROBE, report_radii=[3]), "E_RADIUS"),
    ("probe-sum", dict(PAIR_PROBE, report_radii=2), "E_RADIUS"),
    # sizes refused before the work is allocated: a J box of
    # (10⁶ + 1)² pieces, 10⁴ + 1 ξ samples, 1002 decay rows
    ("probe-sum", dict(PAIR_PROBE, radius=10 ** 6), "E_RADIUS"),
    ("probe-sum", dict(PAIR_PROBE, xi_count=10 ** 4 + 1), "E_MALFORMED"),
    ("probe-decay", dict(DECAY_PROBE, k_max=1001), "E_MALFORMED"),
    # one ξ: more than one row is refused, never truncated to the first
    ("probe-decay", dict(DECAY_PROBE, xi=[[100.0], [5.0], [0.1]]), "E_XI"),
    ("probe-divergence", dict(ODD_POINT, xi=[[1.0], [2.0]]), "E_XI"),
])
def test_probe_rejects_bad_fields(runner, tmp_path, command, payload, code):
    res = runner.invoke(main, [command, "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert f"input error: {code}:" in res.output


@pytest.mark.parametrize("command, payload", [
    ("probe-divergence", ODD_POINT), ("probe-sum", PAIR_PROBE),
    ("probe-decay", {k: v for k, v in DECAY_PROBE.items() if k != "xi"})])
def test_probe_rejects_a_negative_seed(runner, tmp_path, command, payload):
    """With no `xi` given, the probes sample it from --seed; a negative
    seed is E_MALFORMED, as is one next to a given `xi`."""
    for extra in ({}, {"xi": [0.5] * len(payload["lambda"])}):
        res = runner.invoke(main, [command, "--seed", "-1", "--input",
                                   _write(tmp_path, dict(payload, **extra))])
        assert res.exit_code == EXIT_INPUT, res.output
        assert "input error: E_MALFORMED: --seed -1" in res.output, res.output


NOT_DISJOINT = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]], [[1, 1], [2, 2]]],
                "xi": [1.0, 1.0]}


@pytest.mark.parametrize("command", ["decide", "probe-decay",
                                     "probe-divergence"])
def test_not_disjoint_input_gets_its_code(runner, tmp_path, command):
    res = runner.invoke(main, [command, "--input",
                               _write(tmp_path, NOT_DISJOINT)])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_NOT_DISJOINT:" in res.output


def test_probe_sum_reads_report_radii(runner, tmp_path):
    payload = dict(PAIR_PROBE, xi=[0.5, 0.25], report_radii=[0, 1])
    res = runner.invoke(main, ["probe-sum", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    assert sorted(report["partial_sums"][0]) == ["0", "1", "2"]
    assert [row["scale"] for row in report["table"]] == [0, 1, 2]


def test_probe_sum_reports_unconverged(runner, tmp_path, monkeypatch):
    payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
               "mode": "probe-sum", "radius": 3, "xi": [[64.0]]}
    path = _write(tmp_path, payload)
    res = runner.invoke(main, ["probe-sum", "--input", path])
    assert res.exit_code == EXIT_BOUNDED
    assert json.loads(res.output)["unconverged"] == 0
    monkeypatch.setattr(osc, "MAX_CELLS", 2)
    res = runner.invoke(main, ["probe-sum", "--input", path])
    assert res.exit_code == EXIT_BOUNDED
    assert json.loads(res.output)["unconverged"] > 0


def test_probe_sum_caps_a_large_frequency_piece(runner, tmp_path):
    """One (1, 1) piece at ξ = 1e6 oscillates too fast for the cell cap:
    the fallback stops at MAX_CELLS cells, in seconds, and the report
    flags the piece unconverged."""
    payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
               "mode": "probe-sum", "radius": 0, "xi": [[1e6]]}
    res = runner.invoke(main, ["probe-sum", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_BOUNDED, res.output
    report = json.loads(res.output)
    assert report["unconverged"] == 1
    assert report["stats"]["pieces"]["fallback"] == 1


def test_probe_sum_imports_no_numpy_ma(tmp_path):
    """`nh probe-sum` on the (1, 1) control, which reaches the adaptive
    fallback, leaves `numpy.ma` unimported (`np.unique` would import it,
    at about 1.2 MB of peak memory).  A fresh interpreter runs it, since
    this test session may have imported `numpy.ma` already."""
    path = _write(tmp_path, {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
                             "mode": "probe-sum", "radius": 3,
                             "xi": [[64.0]]})
    code = ("import sys\n"
            "from nh.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'numpy.ma' in sys.modules,\n"
            "          file=sys.stderr)\n")
    run = subprocess.run([sys.executable, "-c", code, "probe-sum", "--input",
                          path], capture_output=True, text=True)
    assert json.loads(run.stdout)["stats"]["pieces"]["fallback"] > 0
    assert run.stderr.split() == [str(EXIT_BOUNDED), "False"], run.stderr


def test_probe_sum_samples_xi_from_the_seed(runner, tmp_path):
    """Without `xi`, probe-sum draws `xi_count` vectors from
    numpy's `default_rng(seed).uniform(-0.25, 0.25, size=d)`; these
    partial sums pin the draws of seeds 0 and 5."""
    path = _write(tmp_path, dict(PAIR_PROBE, xi_count=2))
    expected = {
        0: [{"0": 0.1049582112336943, "2": 0.3241308721990273},
            {"0": 0.32777369865361405, "2": 1.0452100947942844}],
        5: [{"0": 0.22957557284511312, "2": 0.7148408327502159},
            {"0": 0.011783913950995302, "2": 0.03633396452293478}],
    }
    for seed, sums in expected.items():
        res = runner.invoke(main, ["probe-sum", "--seed", str(seed),
                                   "--input", path])
        assert res.exit_code == EXIT_BOUNDED, res.output
        got = json.loads(res.output)["partial_sums"]
        assert got == [{r: pytest.approx(v, rel=1e-12)
                        for r, v in row.items()} for row in sums]


def test_exact_subcommands_load_no_numpy(tmp_path):
    """Importing `nh.cli` and running every exact subcommand leaves numpy
    and `nh.oscillatory` unloaded: only the probes import them.  A fresh
    interpreter runs it, since this test session has imported both."""
    worked = _write(tmp_path, WORKED_PAIR)
    odd = _write(tmp_path, dict(ODD_POINT, coefficients={"1:(1,1)": "2"}),
                 "odd.json")
    code = ("import json, sys\n"
            "from click.testing import CliRunner\n"
            "from nh.cli import main\n"
            "worked, odd = sys.argv[1:]\n"
            "runner = CliRunner()\n"
            "codes = [runner.invoke(main, [cmd, '--input', path]).exit_code\n"
            "         for cmd, path in [('decide', odd),\n"
            "                           ('decide-general', odd),\n"
            "                           ('decide-graph', odd),\n"
            "                           ('faces', worked),\n"
            "                           ('decompose', worked)]]\n"
            "report = runner.invoke(main, ['decide', '--input', odd])\n"
            "codes.append(runner.invoke(main, ['verify'],\n"
            "                           input=report.stdout).exit_code)\n"
            "print(json.dumps([codes, 'numpy' in sys.modules,\n"
            "                  'nh.oscillatory' in sys.modules]))\n")
    run = subprocess.run([sys.executable, "-c", code, worked, odd],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[EXIT_UNBOUNDED] * 3
                                      + [EXIT_BOUNDED] * 3, False, False]


def test_huge_n_is_malformed_in_bounded_memory(tmp_path):
    """n = 10³⁰ with a 1-integer exponent is E_MALFORMED in every exact
    subcommand and in `verify`.  Checking S against n once built
    set(range(n)) and exhausted memory first, so a fresh interpreter
    runs the commands under a 1 GiB address-space limit."""
    path = _write(tmp_path, {"kind": "unbounded", "n": 10 ** 30, "S": [],
                             "lambda": [[[1]]]})
    commands = ["decide", "decide-graph", "decide-general", "faces",
                "decompose", "verify"]
    code = ("import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
            "from click.testing import CliRunner\n"
            "from nh.cli import main\n"
            "path, commands = sys.argv[1], sys.argv[2:]\n"
            "runner = CliRunner()\n"
            "results = [runner.invoke(main, [cmd, '--input', path])\n"
            "           for cmd in commands]\n"
            "print(json.dumps([[r.exit_code, 'E_MALFORMED' in r.output]\n"
            "                  for r in results]))\n")
    run = subprocess.run([sys.executable, "-c", code, path, *commands],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[EXIT_INPUT, True]] * len(commands)


def test_probe_sum_counts_pieces_per_path(runner, tmp_path, monkeypatch):
    """`stats.pieces` splits the J box of every ξ into pruned pieces and
    pieces evaluated by the series or the fallback, and repeats the
    unconverged count."""
    payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
               "mode": "probe-sum", "radius": 10, "xi": [[64.0], [1e-6]]}
    path = _write(tmp_path, payload)
    monkeypatch.setattr(osc, "MAX_CELLS", 2)
    res = runner.invoke(main, ["probe-sum", "--input", path])
    assert res.exit_code == EXIT_BOUNDED
    report = json.loads(res.output)
    pieces = report["stats"]["pieces"]
    assert sorted(pieces) == ["fallback", "pruned", "series", "unconverged"]
    assert sum(pieces[k] for k in ("pruned", "series", "fallback")) \
        == 2 * 11 ** 2
    assert min(pieces["pruned"], pieces["series"], pieces["fallback"]) > 0
    assert 0 < pieces["unconverged"] == report["unconverged"] \
        <= pieces["fallback"]


def test_probe_sum_reports_fallback_cells(runner, tmp_path):
    """`stats.fallback_cells` counts the fallback's cells over every ξ:
    positive on the (1, 1) control at ξ = 64, 0 where the moment series
    takes every piece."""
    for xi, positive in ((64.0, True), (1e-3, False)):
        payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]]],
                   "mode": "probe-sum", "radius": 3, "xi": [[xi]]}
        res = runner.invoke(main, ["probe-sum", "--input",
                                   _write(tmp_path, payload)])
        assert res.exit_code == EXIT_BOUNDED
        stats = json.loads(res.output)["stats"]
        assert (stats["fallback_cells"] > 0) == positive
        assert (stats["pieces"]["fallback"] > 0) == positive


# a valid input of each subcommand that reads a problem, and its exit code
VALID = {
    "decide": (ODD_POINT, EXIT_UNBOUNDED),
    "decide-graph": (ODD_POINT, EXIT_UNBOUNDED),
    "decide-general": (dict(ODD_POINT, coefficients={"1:(1,1)": "2"}),
                       EXIT_UNBOUNDED),
    "faces": (ODD_POINT, EXIT_BOUNDED),
    "decompose": (ODD_POINT, EXIT_BOUNDED),
    "probe-divergence": (dict(ODD_POINT, xi=[1.0], shrink_levels=[4, 5]),
                         EXIT_BOUNDED),
    "probe-sum": (dict(ODD_POINT, xi=[0.5], radius=1), EXIT_BOUNDED),
    "probe-decay": (DECAY_PROBE, EXIT_BOUNDED),
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_subcommand_reads_runs_and_emits(runner, tmp_path, command):
    """Every subcommand shares one read → run → emit path: malformed JSON
    is E_MALFORMED with exit 1; a valid input's report carries `version`
    and `timing_seconds`, echoes the input as `input` (all but `verify`,
    which reads a certificate) and prints as `key = value` lines with
    --format text."""
    res = runner.invoke(main, [command], input="{not json")
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_MALFORMED:" in res.output
    if command == "verify":
        payload = _unbounded_report(runner, tmp_path, ODD_POINT,
                                    "odd.json")["certificate"]
        code = EXIT_BOUNDED
    else:
        payload, code = VALID[command]
    path = _write(tmp_path, payload)
    res = runner.invoke(main, [command, "--input", path])
    assert res.exit_code == code, res.output
    report = json.loads(res.stdout)
    assert report["version"] == __version__
    assert isinstance(report["timing_seconds"], float)
    assert report.get("input") == (None if command == "verify" else payload)
    res = runner.invoke(main, [command, "--format", "text", "--input", path])
    assert res.exit_code == code, res.output
    lines = res.stdout.splitlines()
    assert f"version = {__version__}" in lines
    assert all(" = " in line for line in lines), lines


def test_text_format(runner, tmp_path):
    res = runner.invoke(main, ["decide", "--format", "text", "--input",
                               _write(tmp_path, GLOBAL_PAIR)])
    assert res.exit_code == EXIT_UNBOUNDED
    assert "verdict = unbounded" in res.output


# ---------------------------------------------------------------------------
# certificate round trips
# ---------------------------------------------------------------------------

def _unbounded_report(runner, tmp_path, payload, name):
    res = runner.invoke(main, ["decide", "--input",
                               _write(tmp_path, payload, name)])
    assert res.exit_code == EXIT_UNBOUNDED
    return json.loads(res.output)


def test_verify_round_trip(runner, tmp_path):
    report = _unbounded_report(runner, tmp_path, GLOBAL_PAIR, "g.json")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    res = runner.invoke(main, ["verify", "--input", str(path)])
    assert res.exit_code == EXIT_BOUNDED
    assert json.loads(res.output)["valid"] is True


def test_verify_rejects_perturbations(runner, tmp_path):
    report = _unbounded_report(runner, tmp_path, ODD_POINT, "o.json")
    cert = report["certificate"]

    def rejected(mutate, name):
        bad = json.loads(json.dumps(cert))
        mutate(bad)
        path = tmp_path / name
        path.write_text(json.dumps(bad))
        res = runner.invoke(main, ["verify", "--input", str(path)])
        assert res.exit_code == EXIT_INPUT, name
        assert json.loads(res.output)["valid"] is False

    rejected(lambda c: c.update(union_rank=c["union_rank"] + 1), "r.json")
    rejected(lambda c: c["odd_subset"].__setitem__(0, [2, 1]), "s.json")
    rejected(lambda c: c.update(overlap_witness=[-1, 1]), "w.json")
    rejected(lambda c: c["witness_faces"][0].update(
        vertices=[[7, 7]]), "f.json")


@pytest.mark.parametrize("payload", [[1, 2], 3, "x"])
def test_verify_rejects_non_object_json(runner, tmp_path, payload):
    res = runner.invoke(main, ["verify", "--input",
                               _write(tmp_path, payload)])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_MALFORMED:" in res.output


def test_verify_requires_certificate(runner, tmp_path):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"verdict": "bounded"}))
    res = runner.invoke(main, ["verify", "--input", str(path)])
    assert res.exit_code == EXIT_INPUT


_FACE_CHANGES = [
    {"nu": "a"}, {"nu": 0}, {"nu": 2}, {"nu": 1.0}, {"nu": True},
    {"vertices": [[1]]}, {"vertices": "x"}, {"vertices": [[1, "1"]]},
    {"rays": [[1, 0, 0]]}, {"rays": None}, {"dim": "0"}, {"dim": None},
]


@pytest.mark.parametrize("face_change, change", [
    *((fc, {}) for fc in _FACE_CHANGES),
    ({}, {"witness_faces": {}}), ({}, {"lambda": 3}), ({}, {"S": ["a"]}),
])
def test_verify_rejects_malformed_certificates(runner, tmp_path,
                                               face_change, change):
    cert = _unbounded_report(runner, tmp_path, ODD_POINT,
                             "o.json")["certificate"]
    cert["witness_faces"][0].update(face_change)
    cert.update(change)
    res = runner.invoke(main, ["verify", "--input",
                               _write(tmp_path, cert, "bad.json")])
    assert res.exit_code == EXIT_INPUT
    assert "input error: E_MALFORMED:" in res.output


def _set_gl_entry(cert):
    cert["gl_matrix"][1][0] = "1/0"


def _set_coefficient(cert):
    cert["coefficients"]["2:(2,2)"] = "1/0"


def _shorten_gl_row(cert):
    cert["gl_matrix"][1] = cert["gl_matrix"][1][:1]


@pytest.mark.parametrize("mutate, code", [
    (_set_gl_entry, "E_BAD_RATIONAL"),
    (_set_coefficient, "E_BAD_RATIONAL"),
    (_shorten_gl_row, "E_MALFORMED"),
    (lambda c: c.update(union_rank="x"), "E_MALFORMED"),
    (lambda c: c.pop("odd_subset"), "E_MALFORMED"),
    (lambda c: c.update(overlap_witness=["a", 1]), "E_BAD_RATIONAL"),
    (lambda c: c.update(overlap_witness=[1]), "E_MALFORMED"),
    (lambda c: c.update(overlap_witness=None), "E_MALFORMED"),
    (lambda c: c.update(graph_axes=["1"]), "E_MALFORMED"),
], ids=["gl_zero_denominator", "coefficient_zero_denominator",
        "gl_short_row", "union_rank_text", "odd_subset_missing",
        "witness_text", "witness_short", "witness_missing",
        "graph_axes_text"])
def test_verify_codes_bad_certificates(runner, tmp_path, mutate, code):
    payload = {"n": 2, "S": [1, 2], "lambda": [[[1, 1]], [[1, 1], [2, 2]]],
               "coefficients": {"1:(1,1)": "1/1", "2:(1,1)": "1/1",
                                "2:(2,2)": "1/1"}}
    res = runner.invoke(main, ["decide-general", "--input",
                               _write(tmp_path, payload)])
    cert = json.loads(res.output)["certificate"]
    mutate(cert)
    res = runner.invoke(main, ["verify", "--input",
                               _write(tmp_path, cert, "bad.json")])
    assert res.exit_code == EXIT_INPUT
    assert f"input error: {code}:" in res.output


@pytest.mark.parametrize("command", ["decide", "decide-graph",
                                     "decide-general", "faces", "decompose",
                                     "verify"])
def test_seed_only_on_probes(runner, tmp_path, command):
    path = _write(tmp_path, ODD_POINT)
    res = runner.invoke(main, [command, "--seed", "1", "--input", path])
    assert res.exit_code == 2 and "No such option '--seed'" in res.output
    probe = dict(ODD_POINT, xi_count=1, radius=1)
    res = runner.invoke(main, ["probe-sum", "--seed", "1", "--input",
                               _write(tmp_path, probe, "probe.json")])
    assert res.exit_code == EXIT_BOUNDED
