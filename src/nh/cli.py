"""Command-line front end.

Parses JSON problem descriptions (1-based indices on the wire, 0-based
internally), runs the decision procedures and the floating-point probes,
and emits deterministic reports: JSON with sorted keys, rationals as
"p/q", probe tables as CSV.  Unbounded verdicts carry a certificate that
the `verify` subcommand re-validates from its overlap witness x alone:
no Newton polyhedron, face lattice or LP is built to check it.

Every subcommand that reads a problem takes one path, `_serve`: read →
run → emit.  It reads and parses the input, runs the subcommand, a
function from the parsed `ProblemInput` to (report body, exit code, CSV
rows or None), and emits the body with the input echo, the version and
the timing.  `verify` reads a certificate instead; it shares the options
and the error → exit-code mapping (`_run`), not the reader.

Only the three `probe-*` subcommands import `oscillatory`, and with it
numpy, and only when they run.  The exact subcommands never load numpy,
whose import takes longer and more memory than a small `decide` needs.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import time
from fractions import Fraction

import click

from . import __version__
from .exact_numeric import is_zero, rank, unit, vsub
from .newton_poly import (
    DomainSpec,
    ExponentSet,
    face_closure_structure,
    minimal_points,
)
from .engine import (
    DepthCapHit,
    LambdaTuple,
    NotDisjoint,
    VectorPolynomial,
    Verdict,
    build_face_chain,
    classify_dyadic,
    decide_disjoint,
    decide_general,
    decide_graph,
    enumerate_lo_tuples,
    graph_tuple,
)
from .parity import is_even

EXIT_BOUNDED = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_UNBOUNDED = 3

MODES = ("decide", "decide-graph", "decide-general", "faces", "decompose",
         "probe-divergence", "probe-sum", "probe-decay")

# Probe sizes refused before anything is allocated.  `probe-sum` holds its
# J box as (pieces × n) indices and (pieces × K) exponents and amplitudes,
# so 2^20 pieces already take some hundred MB; `probe-decay` evaluates its
# k_max + 1 pieces in one batch; seeded ξ samples are drawn all at once.
MAX_BOX_PIECES = 2 ** 20
MAX_K = 1000
MAX_XI_COUNT = 10 ** 4


class InputError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_COEFF_KEY = re.compile(r"^(\d+):\((\d+(?:,\s*\d+)*)\)$")
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text.strip()):
        raise InputError("E_BAD_RATIONAL",
                         f"malformed rational {text!r} (want 'p/q')")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InputError("E_BAD_RATIONAL",
                         f"zero denominator in {text!r}") from None


def _is_int(x) -> bool:
    """A JSON integer: `true`/`false` load as bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_vector(v, n: int) -> bool:
    """A JSON list of n integers."""
    return isinstance(v, list) and len(v) == n and all(_is_int(c) for c in v)


class ProblemInput:
    """Validated problem description (internal 0-based indices)."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise InputError("E_MALFORMED", "top level must be an object")
        self.raw = raw
        self.n = raw.get("n")
        if not _is_int(self.n):
            raise InputError("E_MALFORMED", "missing or bad field 'n'")
        if self.n < 1:
            raise InputError("E_MALFORMED", "n must be >= 1")
        s_raw = raw.get("S", [])
        if not isinstance(s_raw, list):
            raise InputError("E_MALFORMED", "'S' must be a list")
        s_int = []
        for j in s_raw:
            if not _is_int(j) or not (1 <= j <= self.n):
                raise InputError(
                    "E_S_RANGE", f"S entry {j!r} outside 1..{self.n}")
            s_int.append(j - 1)
        self.spec = DomainSpec.of(self.n, s_int)
        lam_raw = raw.get("lambda")
        if not isinstance(lam_raw, list) or not lam_raw:
            raise InputError("E_MALFORMED",
                             "'lambda' must be a nonempty list of lists")
        self.lambdas = []
        for nu, block in enumerate(lam_raw):
            if not isinstance(block, list) or not block:
                raise InputError(
                    "E_MALFORMED", f"lambda[{nu + 1}] must be nonempty")
            pts = []
            for m in block:
                if not _is_int_vector(m, self.n):
                    raise InputError(
                        "E_MALFORMED",
                        f"exponent {m!r} must be {self.n} integers")
                if any(c < 0 for c in m):
                    raise InputError(
                        "E_NEG_EXPONENT", f"negative exponent in {m}")
                pts.append(tuple(m))
            self.lambdas.append(ExponentSet.of(pts, self.n))
        self.mode = raw.get("mode")
        if self.mode is not None and self.mode not in MODES:
            raise InputError("E_MALFORMED", f"unknown mode {self.mode!r}")
        self.coefficients = self._parse_coefficients(raw.get("coefficients"))

    def _parse_coefficients(self, raw):
        """The given coefficients by (ν, m), None without a map."""
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise InputError("E_MALFORMED", "'coefficients' must be a map")
        out, keys = {}, {}
        for key, val in raw.items():
            m_key = _COEFF_KEY.match(key.replace(" ", ""))
            if not m_key:
                raise InputError(
                    "E_MALFORMED",
                    f"coefficient key {key!r} is not 'nu:(m1,...,mn)'")
            nu = int(m_key.group(1)) - 1
            m = tuple(int(x) for x in m_key.group(2).split(","))
            if (nu, m) in keys:
                raise InputError(
                    "E_MALFORMED", f"coefficient keys {keys[nu, m]!r} and "
                                   f"{key!r} name the same monomial")
            keys[nu, m] = key
            if not (0 <= nu < len(self.lambdas)):
                raise InputError(
                    "E_MALFORMED",
                    f"coefficient key {key!r}: component index {nu + 1} "
                    f"outside 1..{len(self.lambdas)}")
            if len(m) != self.n or m not in self.lambdas[nu].points:
                raise InputError(
                    "E_MALFORMED",
                    f"coefficient exponent {m} not in lambda[{nu + 1}]")
            c = _parse_rational(val)
            if c == 0:
                raise InputError("E_ZERO_COEFF",
                                 f"zero coefficient at {key!r}")
            out[(nu, m)] = c
        return out

    def lambda_tuple(self) -> LambdaTuple:
        return LambdaTuple(self.lambdas, self.spec)

    def polynomial(self) -> VectorPolynomial:
        """P with the given coefficients, 1/1 at every other monomial."""
        coef = dict(self.coefficients or {})
        for nu, lam in enumerate(self.lambdas):
            for m in lam.points:
                coef.setdefault((nu, m), Fraction(1))
        return VectorPolynomial(coef, len(self.lambdas), self.spec)

    def echo(self) -> dict:
        return self.raw


def _decode(text: bytes):
    """The JSON value in `text`; anything else is E_MALFORMED."""
    try:
        return json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError("E_MALFORMED", f"not valid UTF-8 JSON: {exc}")


def parse_input(text: bytes) -> ProblemInput:
    return ProblemInput(_decode(text))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _vec_out(v) -> list:
    out = []
    for c in v:
        f = Fraction(c)
        out.append(int(f) if f.denominator == 1 else _frac_str(f))
    return out


def _face_out(nu: int, face) -> dict:
    return {
        "nu": nu + 1,
        "vertices": [list(v) for v in face.cut[0]],
        "rays": [list(r) for r in face.cut[1]],
        "dim": face.dim,
        "is_empty": face.is_empty,
        "is_improper": face.is_improper,
    }


def _certificate(problem: ProblemInput, verdict: Verdict) -> dict:
    cert = {
        "kind": "unbounded",
        "n": problem.n,
        "S": sorted(j + 1 for j in problem.spec.S),
        "lambda": [[list(m) for m in lam.sorted_points()]
                   for lam in problem.lambdas],
        "witness_faces": [
            _face_out(nu, f)
            for nu, f in enumerate(verdict.face_tuple.faces)],
        "odd_subset": [list(m) for m in verdict.odd_subset],
        "union_rank": verdict.face_tuple.union_rank,
        "overlap_witness": _vec_out(verdict.face_tuple.overlap_witness),
    }
    if verdict.gl_matrix is not None:
        poly = problem.polynomial()
        cert["gl_matrix"] = [[_frac_str(x) for x in row]
                             for row in verdict.gl_matrix]
        cert["coefficients"] = {
            f"{nu + 1}:({','.join(map(str, m))})": _frac_str(c)
            for (nu, m), c in sorted(poly.coefficients.items())}
        cert["class_lambda"] = [
            [list(m) for m in sorted(s)]
            for s in poly.transformed(verdict.gl_matrix).supports() if s]
    return cert


def emit_report(report: dict, fmt: str, csv_rows=None) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          default=str) + "\n"
    if fmt == "csv":
        if csv_rows is None:
            raise InputError("E_MALFORMED",
                             "csv format is only available for probe tables")
        lines = ["scale,value,bound"]
        for scale, value, bound in csv_rows:
            lines.append(f"{scale!r},{value!r},{bound!r}")
        return "\n".join(lines) + "\n"
    # text
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, list) and obj and isinstance(
                obj[0], (dict, list)):
            for i, item in enumerate(obj):
                walk(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]} = {obj}")
    walk("", report)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command plumbing
# ---------------------------------------------------------------------------

_seed = click.option("--seed", type=int, default=0, show_default=True,
                     help="RNG seed for sampled probe points (>= 0).")


def _common(fn):
    fn = click.option("--format", "fmt",
                      type=click.Choice(["json", "text", "csv"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--input", "input_path", default="-",
                      show_default=True, help="JSON input file; - is stdin.",
                      type=click.Path(exists=True, dir_okay=False,
                                      allow_dash=True))(fn)
    return fn


def _read(input_path: str) -> bytes:
    """The bytes of the input file, or of stdin for `-`."""
    if input_path == "-":
        return sys.stdin.buffer.read()
    with open(input_path, "rb") as fh:
        return fh.read()


def _out(text: str) -> None:
    """Write a report to stdout.

    Every echo names its stream: without `file=`, click caches a text
    wrapper per stream in a WeakKeyDictionary whose values hold their keys,
    so each in-process invocation (CliRunner, library callers) would keep
    its streams alive.
    """
    click.echo(text, file=sys.stdout, nl=False)


def _err(text: str) -> None:
    click.echo(text, file=sys.stderr)


def _run(fn):
    """Uniform error → exit-code mapping for all subcommands."""
    try:
        code = fn()
    except InputError as exc:
        _err(f"input error: {exc}")
        sys.exit(EXIT_INPUT)
    except NotDisjoint as exc:
        _err(f"input error: E_NOT_DISJOINT: {exc}")
        sys.exit(EXIT_INPUT)
    except (ValueError, KeyError) as exc:
        _err(f"input error: {exc}")
        sys.exit(EXIT_INPUT)
    except AssertionError as exc:
        _err(f"internal assertion failed: {exc}")
        sys.exit(EXIT_INTERNAL)
    except DepthCapHit as exc:
        _err(f"no verdict: E_DEPTH_CAP: {exc}")
        sys.exit(EXIT_INTERNAL)
    sys.exit(code)


def _serve(fn, input_path: str, fmt: str, opts: dict) -> None:
    """The one path of every subcommand that reads a problem: refuse a
    negative --seed before reading (numpy's generators take none), read
    and parse the input, run `fn` on it, and emit its report body with the
    input echo, version and timing; exit with `fn`'s code."""
    def body():
        seed = opts.get("seed", 0)
        if seed < 0:
            raise InputError("E_MALFORMED", f"--seed {seed} must be >= 0")
        started = time.time()
        problem = parse_input(_read(input_path))
        out, code, rows = fn(problem, **opts)
        _out(emit_report(dict(out, input=problem.echo(), version=__version__,
                              timing_seconds=round(time.time() - started, 6)),
                         fmt, csv_rows=rows))
        return code
    _run(body)


def _problem(fn):
    """`fn`, from a ProblemInput (and --seed) to (report body, exit code,
    CSV rows or None), as a subcommand callback on `_serve`'s path;
    `functools.wraps` carries fn's name, help and the options applied
    below `_problem` over to it."""
    @functools.wraps(fn)
    def command(input_path, fmt, **opts):
        _serve(fn, input_path, fmt, opts)
    return _common(command)


def _verdict(problem: ProblemInput, verdict: Verdict):
    """A decide verdict's report body and exit code (and no CSV rows)."""
    body = {
        "verdict": verdict.kind,
        "tuples_examined": verdict.lo_tuples,
        "lo_tuples": verdict.lo_tuples,
    }
    if not verdict.bounded:
        body["certificate"] = _certificate(problem, verdict)
    if verdict.gl_class_count is not None:
        body["gl_class_count"] = verdict.gl_class_count
    return body, (EXIT_BOUNDED if verdict.bounded else EXIT_UNBOUNDED), None


@click.group()
@click.version_option(__version__)
def main():
    """Exact boundedness decisions for multi-parameter Hilbert transforms
    along polynomial surfaces, plus floating-point corroboration probes."""


@main.command()
@_problem
def decide(problem):
    """Face/cone/evenness decision for mutually disjoint exponent sets."""
    return _verdict(problem, decide_disjoint(problem.lambda_tuple()))


def _graph_block(blocks: list, n: int):
    """Λ_{n+1} of a graph-case input: the only block, or the last of n+1
    blocks whose first n are the coordinate unit vectors."""
    if len(blocks) == n + 1:
        units = [frozenset({unit(n, j)}) for j in range(n)]
        if [b.points for b in blocks[:n]] != units:
            raise InputError(
                "E_MALFORMED",
                "graph case needs lambda_1..lambda_n = unit vectors")
        return blocks[-1]
    if len(blocks) == 1:
        return blocks[0]
    raise InputError("E_MALFORMED",
                     f"graph case wants 1 or {n + 1} lambda blocks")


@main.command("decide-graph")
@_problem
def decide_graph_cmd(problem):
    """Graph-case decision: lambda's last block is Λ_{n+1}; the first n
    blocks, when present, must be the coordinate unit vectors.  The
    certificate is a `decide` certificate on the unit-augmented tuple."""
    last = _graph_block(problem.lambdas, problem.n)
    verdict = decide_graph(last, problem.spec)
    # the certificate lists the tuple decided; the echo stays the input
    problem.lambdas = list(graph_tuple(last, problem.spec).lambdas)
    return _verdict(problem, verdict)


@main.command("decide-general")
@_problem
def decide_general_cmd(problem):
    """General criterion for the given coefficients over the support
    classes Λ(AP), A lower unitriangular (elimination cascade)."""
    if problem.coefficients is None:
        raise InputError("E_MALFORMED",
                         "'coefficients' required for decide-general")
    return _verdict(problem, decide_general(problem.polynomial()))


@main.command()
@_problem
def faces(problem):
    """Dump the face lattice of each Newton polyhedron."""
    out = []
    for nu, poly in enumerate(problem.lambda_tuple().polyhedra):
        out.append({
            "nu": nu + 1,
            "dim": poly.dim,
            "vertices": [list(v) for v in sorted(poly.vertices)],
            "rays": [list(r) for r in sorted(poly.rays)],
            "facet_normals": [
                {"normal": _vec_out(q), "level": _frac_str(r)}
                for q, r in poly.facets_a],
            "orthogonal_basis": [
                {"normal": _vec_out(q), "level": _frac_str(s)}
                for q, s in poly.basis_b],
            "faces": [dict(_face_out(nu, f),
                           S0=(sorted(j + 1 for j in
                                      face_closure_structure(f))
                               if not f.is_empty else None))
                      for f in poly.faces()],
        })
    return {"polyhedra": out}, EXIT_BOUNDED, None


@main.command()
@_problem
def decompose(problem):
    """List the low-rank overlapping face tuples with their joint cone
    generators and descending face chains; classify an optional dyadic
    index over the closed cones."""
    j = problem.raw.get("dyadic_index")
    if "dyadic_index" in problem.raw and not (
            _is_int_vector(j, problem.n)
            and all(j[i] >= 0 for i in problem.spec.S)):
        raise InputError("E_MALFORMED", f"dyadic_index {j!r} must be "
                                        f"{problem.n} integers, >= 0 "
                                        "at the indices in S")
    lam = problem.lambda_tuple()
    tuples_out = []
    for ft in enumerate_lo_tuples(lam):
        gens, lin, chain = build_face_chain(ft)
        tuples_out.append({
            "faces": [_face_out(nu, f)
                      for nu, f in enumerate(ft.faces)],
            "union_rank": ft.union_rank,
            "overlap_witness": _vec_out(ft.overlap_witness),
            "union_even": is_even(ft.union_lambda()),
            "cap_generators": [_vec_out(g) for g in gens],
            "cap_lineality": [_vec_out(l) for l in lin],
            "chain": [[_face_out(nu, f) for nu, f in enumerate(step)]
                      for step in chain],
        })
    out = {"lo_tuples": tuples_out}
    if j is not None:
        out["dyadic_index"] = j
        out["dyadic_tuples"] = [
            {"faces": [_face_out(nu, f)
                       for nu, f in enumerate(ft.faces)],
             "union_rank": ft.union_rank}
            for ft in classify_dyadic(lam, j)]
    return out, EXIT_BOUNDED, None


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def _given_xi(problem: ProblemInput, single: bool = False):
    """The input's `xi` (one frequency vector or a list of them) as a list
    of vectors of d finite components; None when the input has no `xi`.
    With `single`, more than one vector is E_XI, never a silent pick."""
    d = len(problem.lambdas)
    if "xi" not in problem.raw:
        return None
    xs = problem.raw["xi"]
    if isinstance(xs, list) and xs and not isinstance(xs[0], list):
        xs = [xs]
    if not isinstance(xs, list) or not xs:
        raise InputError("E_XI", "'xi' must be a vector or a nonempty "
                                 "list of vectors")
    if single and len(xs) > 1:
        raise InputError("E_XI", f"this probe takes one xi vector, not "
                                 f"{len(xs)}")
    for row in xs:
        if not isinstance(row, list) or len(row) != d or not all(
                _is_finite_real(x) for x in row):
            raise InputError(
                "E_XI", f"xi row {row!r} must hold {d} finite numbers")
    return [[float(x) for x in row] for row in xs]


def _is_finite_real(x) -> bool:
    """A JSON number that is a finite double (`NaN` loads as a float)."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an integer beyond the double range
        return False


def _int_field(problem: ProblemInput, key: str, default, lo: int, hi: int,
               code: str, listed: bool = False):
    """The input's `key` (`default` when absent): an integer in lo..hi, or
    with `listed` a list of them; anything else is InputError `code`."""
    value = problem.raw.get(key, default)
    items = value if listed else [value]
    if not (isinstance(items, list)
            and all(_is_int(x) and lo <= x <= hi for x in items)):
        kind = "a list of integers" if listed else "an integer"
        raise InputError(code, f"{key} {value!r} must be {kind} in "
                               f"{lo}..{hi}")
    return value


def _probe(rows, **body):
    """A probe's report body with its {scale, value, bound} table, exit
    code 0 and the table as CSV rows."""
    table = [{"scale": s, "value": v, "bound": b} for s, v, b in rows]
    return dict(body, table=table), EXIT_BOUNDED, rows


@main.command("probe-divergence")
@_problem
@_seed
def probe_divergence(problem, seed):
    """Log-divergence probe along the engine's odd witness tuple."""
    from . import oscillatory as osc
    verdict = decide_disjoint(problem.lambda_tuple())
    if verdict.bounded:
        raise InputError("E_MALFORMED",
                         "divergence probe needs an unbounded input")
    xi = (_given_xi(problem, single=True)
          or osc.sample_xi(seed, 1, len(problem.lambdas)))[0]
    ks = _int_field(problem, "shrink_levels", list(range(4, 15)), 1, 1000,
                    "E_MALFORMED", listed=True)
    if len(set(ks)) < 2:
        raise InputError("E_MALFORMED", f"shrink_levels {ks!r} must hold "
                                        "at least 2 distinct integers")
    seq = [((2.0 ** -k,) * problem.n, (1.0,) * problem.n) for k in ks]
    res = osc.divergence_probe(problem.polynomial(), verdict.face_tuple, xi,
                               seq)
    return _probe(res.rows, slope=res.slope, intercept=res.intercept,
                  r_squared=res.r_squared, inconclusive=res.inconclusive,
                  unconverged=res.unconverged)


@main.command("probe-sum")
@_problem
@_seed
def probe_sum(problem, seed):
    """Dyadic multiplier-sum plateau probe."""
    from . import oscillatory as osc
    # a J box holds at least radius + 1 pieces: MAX_BOX_PIECES caps both
    radius = _int_field(problem, "radius", 15, 0, MAX_BOX_PIECES, "E_RADIUS")
    if osc.box_size(problem.n, len(problem.spec.S), radius) > MAX_BOX_PIECES:
        raise InputError("E_RADIUS", f"radius {radius} gives a J box of "
                                     f"more than {MAX_BOX_PIECES} pieces")
    report_radii = (None if problem.raw.get("report_radii") is None else
                    _int_field(problem, "report_radii", None, 0, radius,
                               "E_RADIUS", listed=True))
    xi_count = _int_field(problem, "xi_count", 20, 1, MAX_XI_COUNT,
                          "E_MALFORMED")
    xis = (_given_xi(problem)
           or osc.sample_xi(seed, xi_count, len(problem.lambdas)))
    res = osc.multiplier_sum_probe(problem.polynomial(), xis, radius,
                                   report_radii)
    return _probe(res.rows, max_sum=res.max_sum,
                  skipped_bound=res.skipped_bound,
                  unconverged=res.unconverged,
                  stats={"pieces": dict(res.pieces,
                                        unconverged=res.unconverged),
                         "fallback_cells": res.fallback_cells},
                  partial_sums=[{str(r): s for r, s in sums.items()}
                                for sums in res.partial_sums])


@main.command("probe-decay")
@_problem
@_seed
def probe_decay(problem, seed):
    """Van der Corput decay table along a cone ray."""
    from . import oscillatory as osc
    ray = problem.raw.get("ray", [1] * problem.n)
    if not isinstance(ray, list) or len(ray) != problem.n or not all(
            _is_finite_real(x) for x in ray):
        raise InputError("E_MALFORMED", f"ray {ray!r} must hold "
                                        f"{problem.n} finite numbers")
    k_max = _int_field(problem, "k_max", 12, 0, MAX_K, "E_MALFORMED")
    xi = (_given_xi(problem, single=True)
          or osc.sample_xi(seed, 1, len(problem.lambdas)))[0]
    res = osc.decay_check(problem.polynomial(), ray, xi, k_max=k_max)
    return _probe(res.rows, delta=res.delta, constant=res.constant,
                  unconverged=res.unconverged)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def _check_witness_face(fdesc, n: int, d: int) -> None:
    """One `witness_faces` entry: `nu` an integer in 1..d, `vertices` and
    `rays` lists of n-integer vectors, an integer `dim` and a boolean
    `is_empty`; else E_MALFORMED."""
    if not (isinstance(fdesc, dict)
            and _is_int(fdesc.get("nu")) and 1 <= fdesc["nu"] <= d
            and all(isinstance(fdesc.get(key), list)
                    and all(_is_int_vector(v, n) for v in fdesc[key])
                    for key in ("vertices", "rays"))
            and _is_int(fdesc.get("dim"))
            and isinstance(fdesc.get("is_empty"), bool)):
        raise _malformed(f"witness face {fdesc!r} needs nu in 1..{d}, "
                         f"vertices and rays as lists of {n} integers, an "
                         "integer dim and a boolean is_empty")


def _malformed(what: str) -> InputError:
    return InputError("E_MALFORMED", f"malformed certificate: {what}")


def _is_block_list(blocks, n: int) -> bool:
    """A nonempty list of nonempty lists of n-integer vectors."""
    return isinstance(blocks, list) and bool(blocks) and all(
        isinstance(b, list) and b and all(_is_int_vector(m, n) for m in b)
        for b in blocks)


def verify_certificate(cert: dict) -> list:
    """Re-validate an unbounded certificate from its overlap witness x
    alone; returns a list of failure strings (empty = accepted).  A bad
    rational raises InputError E_BAD_RATIONAL; any other structural defect
    (a missing x too) raises E_MALFORMED.  No polyhedron, face lattice or
    LP is built.  x ≠ 0 in Z(S) cuts out of N(Λ_ν, S) the x-minimal points
    of Λ_ν and the rays e_j (j ∈ S) with x_j = 0 (`minimal_points`):
    - the face: each nonempty listed face's vertices are a nonempty subset
      of those points, its rays are those rays and `dim` their dimension
      (an empty face asks nothing more of x);
    - the rank: those points and rays have rank `union_rank` ≤ n−1 (the
      rank of the vertices and rays, as Λ∩F ⊆ conv V + cone R);
    - the parity: the odd subset is a nonempty subset of them summing to
      an all-odd vector.
    Λ is a GL certificate's `class_lambda`, which U·P must give, else
    `lambda`; a `decide-graph` certificate lists the unit-augmented tuple
    there.  One with the retired `graph_axes` field is E_MALFORMED."""
    if "graph_axes" in cert:
        raise _malformed("'graph_axes' is retired: a graph certificate "
                         "lists the unit-augmented tuple in 'lambda'")
    try:
        problem = ProblemInput(cert)
    except InputError as exc:
        if exc.code == "E_BAD_RATIONAL":
            raise
        raise _malformed(str(exc)) from None
    n, spec, lambdas = problem.n, problem.spec, problem.lambdas
    if not _is_int(cert.get("union_rank")):
        raise _malformed("'union_rank' must be an integer")
    odd = cert.get("odd_subset")
    if not (isinstance(odd, list)
            and all(_is_int_vector(m, n) for m in odd)):
        raise _malformed(f"'odd_subset' must be a list of {n} integers")
    witness = cert.get("overlap_witness")
    if not (isinstance(witness, list) and len(witness) == n):
        raise _malformed(f"'overlap_witness' must hold {n} rationals")
    witness = tuple(Fraction(x) if _is_int(x) else _parse_rational(x)
                    for x in witness)

    failures = []
    if "gl_matrix" in cert:
        d = len(lambdas)
        rows = cert["gl_matrix"]
        if not (isinstance(rows, list) and len(rows) == d and all(
                isinstance(row, list) and len(row) == d for row in rows)):
            raise _malformed(f"'gl_matrix' must be {d} rows of {d} entries")
        matrix = [[_parse_rational(x) for x in row] for row in rows]
        if problem.coefficients is None:
            raise _malformed("a 'gl_matrix' needs 'coefficients'")
        claimed = cert.get("class_lambda")
        if not _is_block_list(claimed, n):
            raise _malformed(f"'class_lambda' must be nonempty lists of "
                             f"{n} integers")
        if rank(matrix) != d:
            failures.append("gl_matrix is singular")
        claimed = [frozenset(tuple(m) for m in block) for block in claimed]
        got = [s for s in problem.polynomial().transformed(matrix).supports()
               if s]
        if sorted(map(sorted, claimed)) != sorted(map(sorted, got)):
            failures.append("gl_matrix does not produce class_lambda")
        lambdas = [ExponentSet.of(block, n) for block in claimed]

    witness_faces = cert.get("witness_faces")
    if not isinstance(witness_faces, list):
        raise _malformed("'witness_faces' must be a list")
    if is_zero(witness) or not spec.in_zs(witness):
        failures.append("overlap witness is zero or outside Z(S)")
    pts, allowed, s_rays = [], set(), spec.rays()
    for fdesc in witness_faces:
        _check_witness_face(fdesc, n, len(lambdas))
        if fdesc["is_empty"]:
            continue
        low, rays = minimal_points(
            witness, lambdas[fdesc["nu"] - 1].points, s_rays)
        vertices = {tuple(v) for v in fdesc["vertices"]}
        if not (vertices and vertices <= set(low)
                and {tuple(r) for r in fdesc["rays"]} == set(rays)
                and rank([vsub(m, low[0]) for m in low[1:]] + rays)
                == fdesc["dim"]):
            failures.append(f"the component-{fdesc['nu']} face is not the "
                            "one the overlap witness cuts out")
        pts += low + rays
        allowed.update(low)
    if failures:
        return failures

    r = rank(pts)
    if r != cert["union_rank"]:
        failures.append(
            f"union_rank mismatch: claimed {cert['union_rank']}, got {r}")
    if r > n - 1:
        failures.append("union rank is not low (rank <= n-1 fails)")
    odd = [tuple(m) for m in odd]
    if not odd or not set(odd) <= allowed:
        failures.append("odd subset is empty or not in the face points")
    if not all(sum(c) % 2 for c in zip(*odd)):
        failures.append("odd subset does not sum to an all-odd vector")
    return failures


@main.command()
@_common
def verify(input_path, fmt):
    """Re-validate an emitted certificate (accepts a full report or a bare
    certificate object)."""
    def body():
        started = time.time()
        raw = _decode(_read(input_path))
        cert = raw.get("certificate", raw) if isinstance(raw, dict) else None
        if not isinstance(cert, dict) or cert.get("kind") != "unbounded":
            raise InputError("E_MALFORMED",
                             "no unbounded certificate found in input")
        failures = verify_certificate(cert)
        report = {
            "valid": not failures,
            "failures": failures,
            "version": __version__,
            "timing_seconds": round(time.time() - started, 6),
        }
        _out(emit_report(report, fmt))
        return EXIT_BOUNDED if not failures else EXIT_INPUT
    _run(body)


if __name__ == "__main__":
    main()
