"""Golden reports: the sha256 of every report, timing masked, that
`decide`, `decide-general`, `faces`, `decompose` (with a dyadic_index) and
`verify` print for seven fixed inputs, and that `decide-graph` and `verify`
print for one graph input.  A refactor of the hull, the face
lattices or the parity code must leave each report byte for byte as it
was; a deliberate change of output updates the table, which

    PYTHONPATH=src python tests/test_golden_reports.py

prints.  The inputs: bounded n = 3 scans (decide with d = 2 and one ray,
decide with d = 3 and no rays, decide-general with shared monomials), a
planted odd vertex in n = 4 (decide is unbounded at once, and verify
re-checks the certificate), and two decide-general inputs that are
unbounded only in a class other than the identity, with n = 2 and n = 3,
and one (n = 2, d = 3) whose odd class has two rows of one support, so
that two sets T of rows share their lo tuples: the odd tuple, on row 3
alone, is scanned after the one lo tuple of row 1 and the one of row 2,
which row 2 reads from row 1's walk.
The graph input, in its full form, has the all-odd vertex (5,3).
"""

import hashlib
import json
import re

from click.testing import CliRunner

from nh.cli import EXIT_UNBOUNDED, main

TIMING = re.compile(r'"timing_seconds": [-0-9.e]+')

INPUTS = {
    "scan-ray": {"n": 3, "S": [1], "lambda": [
        [[3, 4, 2], [0, 4, 3], [3, 4, 0]], [[2, 0, 0], [4, 0, 2], [0, 4, 4]]]},
    "scan-d3": {"n": 3, "S": [], "lambda": [
        [[4, 0, 0], [2, 1, 4], [2, 3, 1]], [[2, 1, 2], [0, 3, 1], [2, 0, 3]],
        [[4, 4, 2], [2, 4, 4], [0, 1, 1]]]},
    "scan-general": {"n": 3, "S": [], "lambda": [
        [[4, 2, 2], [2, 3, 4], [2, 1, 2]], [[4, 4, 0], [2, 3, 3], [2, 3, 4]]],
        "coefficients": {
            "1:(2,3,4)": "3/1", "1:(2,1,2)": "1/1", "1:(4,2,2)": "2/3",
            "2:(2,3,4)": "-3/1", "2:(2,3,3)": "-3/2", "2:(4,4,0)": "2/1"}},
    "planted-odd": {"n": 4, "S": [1], "lambda": [
        [[3, 1, 3, 3], [2, 2, 4, 2], [4, 5, 1, 3], [4, 5, 2, 5],
         [2, 2, 1, 5]]]},
    "hidden-odd": {"n": 2, "S": [1], "lambda": [
        [[0, 2]], [[0, 2], [1, 1], [2, 0]], [[2, 3], [4, 0]]],
        "coefficients": {
            "1:(0,2)": "3/2", "2:(0,2)": "-2", "2:(1,1)": "1", "2:(2,0)": "1",
            "3:(2,3)": "3/2", "3:(4,0)": "-2"}},
    "pair-odd": {"n": 3, "S": [], "lambda": [
        [[0, 2, 0], [3, 2, 0]], [[0, 2, 0], [2, 3, 1], [3, 2, 0], [4, 4, 2]]],
        "coefficients": {
            "1:(0,2,0)": "-2", "1:(3,2,0)": "-2", "2:(0,2,0)": "4",
            "2:(3,2,0)": "4", "2:(2,3,1)": "1", "2:(4,4,2)": "3"}},
    "twin-odd": {"n": 2, "S": [1], "lambda": [
        [[2, 3], [3, 3]], [[2, 3], [3, 3]], [[1, 1], [2, 3]]],
        "coefficients": {
            "1:(2,3)": "3/2", "1:(3,3)": "-1", "2:(2,3)": "-1",
            "2:(3,3)": "1", "3:(1,1)": "1", "3:(2,3)": "-1"}},
}

GRAPH_INPUTS = {
    "graph-odd": {"n": 2, "S": [1, 2], "lambda": [
        [[1, 0]], [[0, 1]], [[5, 3], [6, 2]]]},
}

GOLDEN = {
    "graph-odd/decide-graph":
        "3:7493b2832b1ac739865fc7c05cfd72182e6b46b20cc69721ee4c25ebc8e4d0e0",
    "graph-odd/verify":
        "0:7b5eca6a983cb1a29931e6c71599882c3eafce1683639847c6274128c2e75fad",
    "scan-ray/decide":
        "0:4e03f38425840d32fef455068c01bd1783173fa80c1ca6b8a30b8dbe727796fe",
    "scan-ray/faces":
        "0:f8a5d16c6df4d16dde365196055984edcdf31728a603e502180618e07a99f287",
    "scan-ray/decompose":
        "0:108d255d840c1811fb1480d81b0fcc712fd4050612952ca783611c4ba9afd47c",
    "scan-d3/decide":
        "0:227c8eff1009bec789d86d37f212d51116ecc73a2f01fc625ceebebcffa01565",
    "scan-d3/faces":
        "0:920e9115cf976c572041cfaef19f64a030c45c6c549822eb5ca5480dc92fd802",
    "scan-d3/decompose":
        "0:a5ef1ee405260f12775178a77b02bd809d1ff2a3767eed3e8f947ed40db96189",
    "scan-general/decide-general":
        "0:a4a8c4db69f360119816b704f1b24d6033f76882cc74e0c2749fe077fc49a0b3",
    "scan-general/faces":
        "0:385becfc11a0a1a0c8adc64fda5edf9cfe3958d2dc88458e6eab8d07bb2f455c",
    "scan-general/decompose":
        "0:5bfbb19ef5d854bda74f22dc75ba741000a3c8444fc276e652f134164cfc890b",
    "planted-odd/decide":
        "3:01bddd8b8573147d26031bba86ef442e73191e3addc40aabbfb68a95671a75b3",
    "planted-odd/verify":
        "0:7b5eca6a983cb1a29931e6c71599882c3eafce1683639847c6274128c2e75fad",
    "planted-odd/faces":
        "0:f1d01e8b576e33dd622ecfd4a82d35506aa7b84401bc46c0db3a0a42d08abee0",
    "planted-odd/decompose":
        "0:7d73ece64133ca61bf0d576af16c370f6d48190443bfea1a1de41c7486fce48d",
    "hidden-odd/decide-general":
        "3:e26ec13ab0ea80a2de70bd5bd8719dd17e58a8bda83ea3161ffa55e71567f681",
    "hidden-odd/verify":
        "0:7b5eca6a983cb1a29931e6c71599882c3eafce1683639847c6274128c2e75fad",
    "hidden-odd/faces":
        "0:340d7ec815dd0b0019653b44bb0ab4b119a009770b4d747c9e177c391c348d82",
    "hidden-odd/decompose":
        "0:1e8098d1c79632baa12a0517a86e60f6b29ffbf638fcedd49657b65daeccd61a",
    "pair-odd/decide-general":
        "3:b5f5f8beea5f253798ea890ce5d8443fd3ec1e6b7c5f677b984c3419f819a6ea",
    "pair-odd/verify":
        "0:7b5eca6a983cb1a29931e6c71599882c3eafce1683639847c6274128c2e75fad",
    "pair-odd/faces":
        "0:182289b0cdfb2c748ca654bbda936e23b9567257968dea0cf5e36e12a7e22195",
    "pair-odd/decompose":
        "0:b6fffbecd5eb6a2084648b1ee4a277e3f2309d246e3fa58e9e605cf1dd0520a0",
    "twin-odd/decide-general":
        "3:c3d61aa9c8e714c573624245c2dc99fb833262a5d3a8c38479d9463b07ef10af",
    "twin-odd/verify":
        "0:7b5eca6a983cb1a29931e6c71599882c3eafce1683639847c6274128c2e75fad",
    "twin-odd/faces":
        "0:0416b730864215cf887d89d3725697a0e2c824484ab923d2e057b8b667dc4f61",
    "twin-odd/decompose":
        "0:ffe71e23060fe875eb43de2e58824ace9a6a7afd0c2539e056367edfbf92de5d",
}


def reports(tmp_path) -> dict:
    """{"input/command": "exit code:sha256 of stdout, timing masked"}."""
    runner = CliRunner()
    out = {}

    def run(name, command, path):
        res = runner.invoke(main, [command, "--input", str(path)])
        text = TIMING.sub('"timing_seconds": 0', res.stdout)
        out[f"{name}/{command}"] = (
            f"{res.exit_code}:{hashlib.sha256(text.encode()).hexdigest()}")
        return res

    def run_and_verify(name, command, path):
        res = run(name, command, path)
        if res.exit_code == EXIT_UNBOUNDED:
            report = tmp_path / f"{name}-report.json"
            report.write_text(res.stdout)
            run(name, "verify", report)

    for name, inp in GRAPH_INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(inp))
        run_and_verify(name, "decide-graph", path)
    for name, inp in INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(inp))
        for command in ("decide-general" if "coefficients" in inp
                        else "decide", "faces"):
            run_and_verify(name, command, path)
        path.write_text(json.dumps(dict(
            inp, dyadic_index=[2, 1, 0, 3][:inp["n"]])))
        run(name, "decompose", path)
    return out


def test_reports_are_the_golden_ones(tmp_path):
    got = reports(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    assert [k for k in GOLDEN if got[k] != GOLDEN[k]] == []


if __name__ == "__main__":
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in reports(pathlib.Path(tmp)).items():
            print(f'    "{key}":\n        "{value}",')
