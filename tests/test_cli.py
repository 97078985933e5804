"""Command line behavior: exit codes, JSON payload shapes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from iqtheta import (
    DEFAULT_SUITE_PLAN,
    PRESET_NAMES,
    FieldId,
    FiniteAbelianGroup,
    GroupCapError,
    KMatrix,
    RelationSpec,
    run_paper_suite,
)
from iqtheta import cli, relations
from iqtheta.cli import main

THETA_D1_AT_I = 1.1803405990160964  # (pi^(1/4)/Gamma(3/4))^2


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _spec_json(t_value: Fraction) -> str:
    field = FieldId(1)
    spec = RelationSpec(
        field=field,
        g=1,
        T=KMatrix([[field.element(t_value)]]),
        P=KMatrix.identity(1, field),
        A0=KMatrix.zeros(1, 1, field),
        B0=KMatrix.zeros(1, 1, field),
        name="cli-test",
    )
    return json.dumps(spec.to_json())


def test_eval_frozen_value(capsys):
    code, out = _run(capsys, ["eval", "--d", "1", "--W", "[[[0, 1]]]"])
    assert code == 0
    blob = json.loads(out)
    assert blob["value"][0] == pytest.approx(THETA_D1_AT_I, abs=1e-13)
    assert blob["value"][1] == pytest.approx(0.0, abs=1e-13)
    assert blob["lattice_points_used"] == 49
    assert blob["tail_bound"] < 1e-12


def test_eval_rejects_lower_halfplane(capsys):
    code, _ = _run(capsys, ["eval", "--d", "1", "--W", "[[[0, -1]]]"])
    assert code == 2


def test_eval_rejects_w_below_the_eigenvalue_grid(capsys):
    # lam_min(Y) = 5e-7 is positive but snaps to 0: a domain error, not a
    # truncation at decay 0
    code, _ = _run(capsys, ["eval", "--d", "1", "--W", "[[[0, 5e-7]]]"])
    assert code == 2


def test_eval_truncation_exit(capsys):
    code, _ = _run(
        capsys,
        ["eval", "--d", "1", "--W", "[[[0, 1]]]",
         "--eps", "1e-30", "--max-radius", "4"],
    )
    assert code == 3


def test_eval_bad_json(capsys):
    code, _ = _run(capsys, ["eval", "--d", "1", "--W", "[[junk"])
    assert code == 1


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1


def test_source_flags_are_exclusive(capsys):
    code, _ = _run(
        capsys, ["groups", "--preset", "matsumoto", "--spec", _spec_json(Fraction(1))]
    )
    assert code == 1
    code, _ = _run(capsys, ["groups"])
    assert code == 1


def test_groups_spec_payload(capsys):
    code, out = _run(capsys, ["groups", "--spec", _spec_json(Fraction(1, 2))])
    assert code == 0
    blob = json.loads(out)
    assert blob["name"] == "cli-test"
    # T^-1 = 2 is integral, so the character side collapses
    assert blob["G1"]["order"] == 4
    assert blob["G1"]["invariant_factors"] == [2, 2]
    assert blob["G2"]["order"] == 1


def test_groups_cap_exit(capsys):
    code, _ = _run(
        capsys,
        ["groups", "--spec", _spec_json(Fraction(1, 5)), "--max-order", "10"],
    )
    assert code == 4


def test_groups_preset_without_relation(capsys):
    code, _ = _run(capsys, ["groups", "--preset", "jacobi_identity"])
    assert code == 2


def test_build_singular_T(capsys):
    field = FieldId(1)
    spec = RelationSpec(
        field=field,
        g=1,
        T=KMatrix.zeros(2, 2, field),
        P=KMatrix.identity(2, field),
        A0=KMatrix.zeros(1, 2, field),
        B0=KMatrix.zeros(1, 2, field),
    )
    code, _ = _run(capsys, ["build", "--spec", json.dumps(spec.to_json())])
    assert code == 2


def test_build_preset_payload(capsys):
    code, out = _run(capsys, ["build", "--preset", "matsumoto"])
    assert code == 0
    blob = json.loads(out)
    assert blob["groups"]["G1_order"] == 2
    assert blob["groups"]["G2_order"] == 2
    assert blob["spec"]["d"] == 1
    assert blob["expected"]["parametrization_matches"] is True
    # exact scale 1/#G2 as a [num, den] pair
    assert blob["scale"] == [1, 2]


def test_verify_preset_roundtrip(capsys):
    code, out = _run(capsys, ["verify", "--preset", "matsumoto"])
    assert code == 0
    blob = json.loads(out)
    assert blob["all_passed"] is True
    checks = {r["check"] for r in blob["reports"]}
    assert checks == {"relation", "matsumoto_statement_g1"}
    for rep in blob["reports"]:
        assert rep["passed"] is True
        assert rep["residual_rel"] <= rep["tolerance"]
        assert len(rep["lhs"]) == 2 and len(rep["rhs"]) == 2


def test_verify_corruption_is_detected(capsys):
    code, out = _run(capsys, ["verify", "--preset", "matsumoto", "--corrupt-phase"])
    assert code == 5
    blob = json.loads(out)
    assert blob["all_passed"] is False
    relation_rows = [r for r in blob["reports"] if r["check"] == "relation"]
    assert relation_rows and all(not r["passed"] for r in relation_rows)


def test_verify_spec_single_W(capsys):
    code, out = _run(
        capsys,
        ["verify", "--spec", _spec_json(Fraction(1, 2)), "--W", "[[[0, 1]]]"],
    )
    assert code == 0
    blob = json.loads(out)
    assert len(blob["reports"]) == 1
    assert blob["reports"][0]["W_index"] == 0


def test_verify_output_deterministic(capsys):
    argv = ["verify", "--preset", "matsumoto", "--seed", "7"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_suite_prints_the_suite_json_and_its_csv(capsys):
    code, out = _run(capsys, ["suite"])
    assert code == 0
    assert out == run_paper_suite().to_json() + "\n"
    code, out = _run(capsys, ["suite", "--out", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "preset,g,d,order_G1,residual_rel,seconds"
    assert len(lines) == 1 + 138


@pytest.mark.parametrize("preset", ["jacobi_identity", "half_formulas", "riemann_quad"])
def test_verify_with_a_seed_passes_at_a_symmetric_sample(capsys, preset):
    # these presets' checks need a symmetric W: --seed appends one from the
    # symmetric branch of _random_W
    code, out = _run(capsys, ["verify", "--preset", preset, "--seed", "3"])
    assert code == 0
    reports = json.loads(out)["reports"]
    assert all(r["passed"] for r in reports)
    if preset == "jacobi_identity":
        assert len(reports) == 4


@pytest.mark.parametrize("g", [1, 2])
def test_random_symmetric_w_is_in_the_siegel_half_space(g):
    W = cli._random_W(g, np.random.default_rng(3), True)
    assert (W == W.T).all()
    assert np.linalg.eigvalsh(W.imag).min() > 0


def test_decompose_payload_and_crosscheck(capsys):
    spec = json.dumps({"d": 3, "g": 1, "P": [[2, -1], [-1, 2]]})
    code, out = _run(
        capsys, ["decompose", "--spec", spec, "--W", "[[[0, 1]]]"]
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["lambdas"] == [[3, 2], [2, 1]]
    assert blob["lambda_product"] == [3, 1]
    assert blob["monomial_count"] == 16
    assert blob["passed"] is True
    assert blob["residual_rel"] < 1e-10


def test_decompose_repeated_pivots(capsys):
    spec = json.dumps({"d": 2, "g": 1, "P": [[[5, 2], 0], [0, [5, 2]]]})
    code, out = _run(capsys, ["decompose", "--spec", spec])
    assert code == 0
    blob = json.loads(out)
    assert blob["lambdas"] == [[5, 2], [5, 2]]
    assert blob["lambda_product"] == [25, 4]


def test_decompose_rejects_indefinite(capsys):
    spec = json.dumps({"d": 1, "g": 1, "P": [[1, 3], [3, 1]]})
    code, _ = _run(capsys, ["decompose", "--spec", spec])
    assert code == 2


def test_decompose_rejects_misshapen_A0(capsys):
    a0 = KMatrix.zeros(1, 1, FieldId(1)).to_json()
    spec = json.dumps({"d": 1, "g": 2, "P": [[2, 1], [1, 2]], "A0": a0})
    code, _ = _run(capsys, ["decompose", "--spec", spec])
    assert code == 2


@pytest.mark.parametrize(
    "w,code,err",
    [
        ("junk", 1, "error: invalid JSON input: Expecting value: line 1 column 1 (char 0)"),
        ("[[[0, 1]]]", 2, "domain error: W must be 2x2 to match A0, got (1, 1)"),
        ("[[[0, 1], [0, 0]]]", 2, "domain error: W must be square, got shape (1, 2)"),
    ],
    ids=["W-junk", "W-1x1", "W-not-square"],
)
def test_decompose_checks_w_before_expanding(capsys, monkeypatch, w, code, err):
    # this spec expands to 390,625 monomials, which took seconds before a
    # bad --W was read
    def expand(*args):
        raise AssertionError("the expansion started")

    monkeypatch.setattr(cli, "decompose_rational_P", expand)
    spec = json.dumps({"d": 1, "g": 2, "P": [[2, 1], [1, 5]]})
    assert main(["decompose", "--spec", spec, "--W", w]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [err]


_GOLDEN = json.loads((Path(__file__).parent / "data" / "decompose_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(_GOLDEN["specs"]))
def test_decompose_output_is_unchanged(capsys, name):
    # the stdout that the expansion through Terms and factor-by-factor
    # lowering printed for (g, h) = (1, 2), (2, 2) and (1, 3)
    code, out = _run(capsys, ["decompose", "--spec", json.dumps(_GOLDEN["specs"][name]),
                              "--W", json.dumps(_GOLDEN["W"][name])])
    assert code == 0
    assert out == _GOLDEN["stdout"][name]


_GROUPS = json.loads((Path(__file__).parent / "data" / "groups_golden.json").read_text())
_GROUPS_ARGV = {**{name: ["--spec", json.dumps(spec)] for name, spec in _GROUPS["specs"].items()},
                **_GROUPS["presets"]}


@pytest.mark.parametrize("name", sorted(_GROUPS_ARGV))
def test_groups_output_is_unchanged(capsys, name):
    # every representative of both groups, in the order that the leaves of
    # a relation follow, for fixed specs over d in {1, 2, 3, 7}, g in {1, 2}
    # and h in {1, 2, 3} and for the suite's relation presets
    code, out = _run(capsys, ["groups", *_GROUPS_ARGV[name],
                              "--rep-limit", str(_GROUPS["rep_limit"])])
    assert code == 0
    assert out == json.dumps(_GROUPS["stdout"][name], indent=2) + "\n"


def _preset_cases() -> dict:
    """The flags of every preset with its defaults, every suite entry, and
    g = 2 variants of six presets, keyed by the flags after the name."""
    entries = [(name, {}) for name in PRESET_NAMES] + list(DEFAULT_SUITE_PLAN) + [
        (name, dict(kw, g=2)) for name, kw in (
            ("cubic_d3", {}), ("cartan_Ah", {"h": 2}), ("prop_half_general_2", {"d": 1}),
            ("cubic_d3_cor1", {}), ("matsumoto", {}), ("riemann_quad", {}))]
    cases = {}
    for name, kw in entries:
        argv = ["--preset", name, *(x for k, v in kw.items() for x in (f"--{k}", str(v)))]
        cases.setdefault(" ".join(argv[1:]), argv)
    return cases


def _preset_outputs(argv: list) -> dict:
    """`build` exit code and stdout (as JSON), and `verify`'s exit code,
    warnings and reports without their values and residuals."""
    out = {}
    for cmd in ("build", "verify"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main([cmd, *argv])
        out[cmd] = {"code": code, "stdout": json.loads(buf.getvalue() or "null")}
    verify = out["verify"]["stdout"]
    for rep in verify["reports"]:
        residual = rep.pop("residual_rel")
        assert residual <= rep["tolerance"]
        for key in ("lhs", "rhs", "residual_abs"):
            del rep[key]
    return out


_PRESETS = json.loads((Path(__file__).parent / "data" / "presets_golden.json").read_text())


@pytest.mark.parametrize("key", sorted(_preset_cases()))
def test_preset_output_is_unchanged(key):
    # build's stdout byte for byte, and verify's reports with their counts,
    # tolerances and verdicts, with each residual within its tolerance
    assert sorted(_PRESETS) == sorted(_preset_cases())
    got = _preset_outputs(_preset_cases()[key])
    assert got == _PRESETS[key]


def test_main_builds_its_parser_once(capsys):
    # in-process calls of main share one parser, built on the first call,
    # and print and exit as separate processes do
    cli._parser.cache_clear()
    name = "g1_h2"
    a0 = {"rows": 1, "cols": 1, "entries": [[{"a": [1, 3], "b": [1, 2]}]]}
    argvs = [["eval", "--d", "3", "--W", "[[[0.1, 1.2]]]", "--A0", json.dumps(a0)],
             ["decompose", "--spec", json.dumps(_GOLDEN["specs"][name]),
              "--W", json.dumps(_GOLDEN["W"][name])]]
    got = [_run(capsys, argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    src = Path(__file__).parent.parent / "src"
    for argv, (code, out) in zip(argvs, got):
        proc = subprocess.run([sys.executable, "-m", "iqtheta", *argv], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (proc.returncode, proc.stdout) == (code, out)
    assert [code for code, _ in got] == [0, 0]
    assert got[1][1] == _GOLDEN["stdout"][name]


def test_decompose_missing_key(capsys):
    code, _ = _run(capsys, ["decompose", "--spec", json.dumps({"d": 1, "g": 1})])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--spec",
         json.dumps({"d": 1, "g": 1, "P": [[1, [1, 0]], [[1, 0], 2]]})],
        ["decompose", "--spec", json.dumps({"d": 1, "g": 1, "P": 5})],
        ["decompose", "--spec",
         json.dumps({"d": 1, "g": 1, "P": [[2]], "A0": {"x": 1}})],
        ["decompose", "--spec", json.dumps({"d": 1, "g": "x", "P": [[2]]})],
        ["decompose", "--spec", json.dumps({"d": 1, "g": 1, "P": []})],
        ["eval", "--d", "4", "--W", "[[[0, 1]]]"],
        ["eval", "--d", "1", "--W", '[[["a", 1]]]'],
        ["decompose", "--spec", json.dumps({"d": 2.9, "g": 1, "P": [[2]]})],
        ["decompose", "--spec", json.dumps({"d": 2, "g": 1.5, "P": [[2]]})],
        ["decompose", "--spec", json.dumps({"d": 2, "g": True, "P": [[2]]})],
        ["decompose", "--spec", json.dumps({"d": 1, "g": 1, "P": [[[3.7, 2]]]})],
        ["decompose", "--spec", json.dumps({"d": 1, "g": 1, "P": [[True]]})],
        ["decompose", "--spec", json.dumps(
            {"d": 1, "g": 1, "P": [[2]], "A0": {"rows": 1, "cols": 1,
             "entries": [[{"a": [1.5, 2], "b": [0, 1]}]]}})],
        ["groups", "--spec",
         json.dumps(dict(json.loads(_spec_json(Fraction(2))), d=1.0))],
        ["groups", "--spec",
         json.dumps(dict(json.loads(_spec_json(Fraction(2))), g=1.5))],
        ["verify", "--preset", "jacobi_identity", "--g", "2"],
        ["build", "--preset", "cubic_d3", "--h", "4"],
        ["eval", "--d", "1", "--W", "[[[0, true]]]"],
        ["eval", "--d", "1", "--W", "[[true]]"],
        ["eval", "--d", "1", "--W", "[[[0.5, 1e400]]]"],
        ["eval", "--d", "1", "--W", "[[[0, 1]]]", "--B0",
         json.dumps({"entries": [[{"a": [1], "b": [0, 1]}]]})],
    ],
    ids=["zero-denominator", "P-not-rows", "A0-no-entries", "g-not-int",
         "P-empty", "d-not-squarefree", "W-entry-not-number", "d-float",
         "g-float", "g-bool", "P-float-numerator", "P-bool", "A0-float-coord",
         "spec-d-float", "spec-g-float", "preset-unknown-g", "preset-unknown-h",
         "W-part-bool", "W-entry-bool", "W-part-overflow", "B0-short-pair"],
)
def test_malformed_input_exits_1(capsys, argv):
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--preset" in argv:
        assert f"preset {argv[argv.index('--preset') + 1]}:" in err


def test_spec_file_input(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(_spec_json(Fraction(1, 2)))
    code, out = _run(capsys, ["groups", "--spec", f"@{path}"])
    assert code == 0
    assert json.loads(out)["G1"]["order"] == 4


_EVAL = ["eval", "--d", "1", "--W", "[[[0, 1]]]"]
_BIG = 10**400  # an exact integer no float can hold
_BIG_ENTRY = json.dumps(
    {"rows": 1, "cols": 1, "entries": [[{"a": [_BIG, 1], "b": [0, 1]}]]}
)


@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        (_EVAL + ["--max-radius", "nan"], 1, "error: "),
        (_EVAL + ["--eps", "nan"], 1, "error: "),
        (_EVAL + ["--P", _BIG_ENTRY], 2, "domain error: "),
        (["decompose", "--spec", json.dumps({"d": 1, "g": 1, "P": [[_BIG]]}),
          "--W", "[[[0, 1]]]"], 2, "domain error: "),
        (["groups", "--preset", "cubic_d3", "--rep-limit", "-1"], 1, "error: "),
    ],
    ids=["max-radius-nan", "eps-nan", "P-entry-too-large",
         "decompose-P-too-large", "rep-limit-negative"],
)
def test_rejected_settings_and_entries(capsys, argv, code, prefix):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), captured.err


def _entry(a):
    a = Fraction(a)
    return json.dumps({"rows": 1, "cols": 1, "entries": [
        [{"a": [a.numerator, a.denominator], "b": [0, 1]}]]})


@pytest.mark.parametrize("huge,small", [(_BIG, 0), (Fraction(_BIG + 1, 2), Fraction(1, 2))],
                         ids=["integral", "half"])
def test_b0_entry_too_large_for_a_float_is_read_exactly(capsys, huge, small):
    # B0 enters only the exact linear phase, which depends on B0 mod the
    # dual lattice: 10^400 acts as 0 and (10^400 + 1)/2 as 1/2
    code, out = _run(capsys, _EVAL + ["--B0", _entry(huge)])
    assert code == 0
    assert (code, out) == _run(capsys, _EVAL + ["--B0", _entry(small)])


def test_p_entry_too_large_names_p(capsys):
    assert main(_EVAL + ["--P", _BIG_ENTRY]) == 2
    err = capsys.readouterr().err
    assert err == "domain error: an exact entry of P is too large for a float\n"


@pytest.mark.parametrize("flag,points", [("--eps", 5), ("--max-radius", 49)])
def test_infinite_settings_accepted(capsys, flag, points):
    code, out = _run(capsys, _EVAL + [flag, "inf"])
    assert code == 0
    assert json.loads(out)["lattice_points_used"] == points


def test_rep_limit_zero_lists_no_representatives(capsys):
    code, out = _run(capsys, ["groups", "--preset", "cubic_d3", "--rep-limit", "0"])
    assert code == 0
    g1 = json.loads(out)["G1"]
    assert g1["representatives"] == [] and g1["representatives_truncated"]


_TINY_DECAY = ["eval", "--d", "1", "--W", "[[[0, 0.000001]]]", "--P",
               json.dumps({"entries": [[{"a": [1, 1048576], "b": [0, 1]}]]})]


@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        (_TINY_DECAY + ["--max-radius", "inf"], 3, "truncation error: "),
        (["eval", "--d", str(999999937**2), "--W", "[[[0, 1]]]"], 1, "error: "),
        (["eval", "--d", str(2**63), "--W", "[[[0, 1]]]"], 1, "error: "),
    ],
    ids=["max-radius-inf-tiny-decay", "d-square-of-large-prime", "d-2^63"],
)
def test_large_inputs_end_quickly(capsys, argv, code, prefix):
    # these ran without bound: a radius search with no cap, and trial
    # division up to sqrt(d)
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), captured.err


def test_large_prime_d_evaluates(capsys):
    # d = 10^18 + 3 is prime, so squarefree.  |delta| ~ 5e8 leaves only the
    # rational integers within reach: the value is theta_3(exp(-pi))
    start = time.perf_counter()
    code, out = _run(capsys, ["eval", "--d", str(10**18 + 3), "--W", "[[[0, 1]]]"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    value = json.loads(out)["value"]
    assert value[0] == pytest.approx(math.pi ** 0.25 / math.gamma(0.75), abs=1e-13)
    assert value[1] == 0.0


def _off_diagonal_spec(den: int) -> str:
    return json.dumps({"d": 1, "g": 1, "P": [[1, [1, den]], [[1, den], 1]]})


def _probe_cosets(monkeypatch) -> list:
    """A list that gets each coset any group makes from here on."""
    made = []
    inner = FiniteAbelianGroup._cosets

    def cosets(group):
        for vec in inner(group):
            made.append(vec)
            yield vec

    monkeypatch.setattr(FiniteAbelianGroup, "_cosets", cosets)
    return made


def test_decompose_refuses_an_expansion_over_the_cap(capsys, monkeypatch):
    # each group of the 1/97 spec has order 97^2, under the group cap, but
    # the expansion has 97^4 monomials: it ran for minutes before the count
    # was checked ahead of the expansion.  The 1/331 groups have 109,561
    # representatives each, which took seconds to build before the count
    # was read off the groups' Smith forms ahead of any coset (a group
    # makes its cosets only when they are read, see _probe_cosets)
    built = _probe_cosets(monkeypatch)
    for den in (97, 331):
        start = time.perf_counter()
        assert main(["decompose", "--spec", _off_diagonal_spec(den)]) == 4
        assert time.perf_counter() - start < 2.0
        assert built == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("group cap: "), lines
        assert str(den**4) in lines[0]
    code, out = _run(capsys, ["decompose", "--spec", _off_diagonal_spec(7)])
    assert code == 0
    assert json.loads(out)["monomial_count"] == 7**4
    assert built


def test_decompose_caps_the_monomials_before_any_representative(capsys, monkeypatch):
    # P = [[2, 1/1000], [1/1000, 2]]: one Schur level whose two groups come
    # to 16,000,000,000,000 monomials.  The count is read off the groups'
    # Smith forms, so the cap refuses it at once, with no coset made
    built = _probe_cosets(monkeypatch)
    field = FieldId(1)
    P = KMatrix.from_rational_rows([[2, Fraction(1, 1000)], [Fraction(1, 1000), 2]], field)
    zero = KMatrix.zeros(1, 2, field)
    message = "the decomposition has 16000000000000 monomials, over the cap 1000000"
    start = time.perf_counter()
    with pytest.raises(GroupCapError) as exc:
        relations.decompose_rational_P(field, 1, P, zero, zero)
    assert str(exc.value) == message
    spec = json.dumps({"d": 1, "g": 1, "P": [[2, [1, 1000]], [[1, 1000], 2]]})
    assert main(["decompose", "--spec", spec]) == 4
    assert time.perf_counter() - start < 2.0
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"group cap: {message}"]


def test_build_refuses_a_relation_over_the_term_cap(capsys):
    # T = 37/31: groups of 961 and 1,369 elements, each under the cap, but
    # 1,315,609 terms, which took seconds and hundreds of MB to expand
    start = time.perf_counter()
    assert main(["build", "--spec", _spec_json(Fraction(37, 31))]) == 4
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("group cap: ") and "1315609" in lines[0]


def _gaussian_spec(g: int, *diagonal) -> RelationSpec:
    """d = 1, T = diag(diagonal), P = 1 and zero characteristics."""
    field = FieldId(1)
    h = len(diagonal)
    T = KMatrix([[field.element(*x) if i == j else field.zero() for j in range(h)]
                 for i, x in enumerate(diagonal)])
    return RelationSpec(field, g, T, KMatrix.identity(h, field),
                        KMatrix.zeros(g, h, field), KMatrix.zeros(g, h, field), name="gaussian")


def test_term_cap_refuses_before_any_coset(capsys, monkeypatch):
    # T = diag(30 + 10i, 1/2) at g = 2: |G1| = 16 and |G2| = 10^6, each
    # under the cap.  The orders are the groups' Smith forms, so the term
    # count is refused before a coset is made (making G2's took 0.7 s)
    made = _probe_cosets(monkeypatch)
    spec = _gaussian_spec(2, (30, 10), (Fraction(1, 2),))
    message = "the relation has 16000000 terms, over the cap 1000000"
    start = time.perf_counter()
    with pytest.raises(GroupCapError) as exc:
        relations.build_relation(spec)
    assert str(exc.value) == message
    assert main(["groups", "--spec", json.dumps(spec.to_json())]) == 4
    assert time.perf_counter() - start < 0.25
    assert made == []
    assert capsys.readouterr().err.splitlines() == [f"group cap: {message}"]


def test_groups_lists_only_the_cosets_it_prints(capsys, monkeypatch):
    # T = 30 + 10i at g = 2: G2 has 10^6 cosets and --rep-limit 2 makes
    # two of them; G1 is trivial, its one coset the zero matrix
    made = _probe_cosets(monkeypatch)
    spec = _gaussian_spec(2, (30, 10))
    start = time.perf_counter()
    code, out = _run(capsys, ["groups", "--spec", json.dumps(spec.to_json()),
                              "--rep-limit", "2"])
    assert time.perf_counter() - start < 0.25
    assert code == 0
    blob = json.loads(out)
    assert blob["G1"]["order"] == 1 and "representatives_truncated" not in blob["G1"]
    g2 = blob["G2"]
    assert g2["order"] == 10**6 and g2["invariant_factors"] == [10, 10, 100, 100]
    assert len(g2["representatives"]) == 2 and g2["representatives_truncated"]
    assert len(made) == 1 + 2


@pytest.mark.parametrize("cmd,name", [("build", "cubic_d3"), ("verify", "riemann_quad"),
                                      ("groups", "cartan_Ah")])
def test_preset_rejects_g_below_one(capsys, cmd, name):
    assert main([cmd, "--preset", name, "--g", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: preset {name} needs g >= 1, got g = 0\n"


@pytest.mark.parametrize("cmd", ["build", "verify", "groups"])
@pytest.mark.parametrize("g", [0, -1])
def test_spec_rejects_g_below_one(capsys, cmd, g):
    # g is refused by name as it is read, before the characteristics
    spec = dict(json.loads(_spec_json(Fraction(2))), g=g)
    assert main([cmd, "--spec", json.dumps(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse relation spec: g must be >= 1, got g = {g}\n"
    field = FieldId(1)
    one = KMatrix.identity(1, field)
    with pytest.raises(ValueError, match=f"^g must be >= 1, got g = {g}$"):
        RelationSpec(field, g, one, one, one, one).validate()


@pytest.mark.parametrize("g", [0, -1])
def test_decompose_rejects_g_below_one(capsys, g):
    # g is refused by name as it is read, before the default characteristics
    # (g x h zeros) are built, and by decompose_rational_P itself
    assert main(["decompose", "--spec", json.dumps({"d": 1, "g": g, "P": [[2]]})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse decompose input: g must be >= 1, got g = {g}\n"
    field = FieldId(1)
    one = KMatrix.identity(1, field)
    with pytest.raises(ValueError, match=f"^g must be >= 1, got g = {g}$"):
        relations.decompose_rational_P(field, g, one, one, one)


def test_preset_relation_obeys_max_order(capsys):
    # matsumoto at g = 3 has groups of 8 and 64 terms: over a cap of 10,
    # a preset's relation is refused as the same relation given by --spec is
    assert main(["build", "--preset", "matsumoto", "--g", "3", "--max-order", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["group cap: the relation has 64 terms, over the cap 10"]
    code, out = _run(capsys, ["build", "--preset", "matsumoto", "--g", "3", "--max-order", "64"])
    assert code == 0 and json.loads(out)["groups"]["term_count"] == 64


def test_groups_caps_the_term_count_by_preset_and_by_spec(capsys):
    # groups of 8 and 64 terms: the preset and the same relation as build
    # writes it out are both refused over a cap of 10, with one stderr
    # line, and both listed at 64
    code, out = _run(capsys, ["build", "--preset", "matsumoto", "--g", "3"])
    assert code == 0
    spec = json.dumps(json.loads(out)["spec"])
    sources = (["--preset", "matsumoto", "--g", "3"], ["--spec", spec])
    for source in sources:
        assert main(["groups", *source, "--max-order", "10"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "group cap: the relation has 64 terms, over the cap 10"]
    payloads = []
    for source in sources:
        code, out = _run(capsys, ["groups", *source, "--max-order", "64"])
        assert code == 0
        blob = json.loads(out)
        payloads.append((blob["G1"], blob["G2"]))
        assert blob["G1"]["order"] == blob["G2"]["order"] == 8
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("argv,err", [
    (["verify", "--preset", "jacobi_identity", "--g", "2"],
     "preset jacobi_identity: takes no parameters; got unexpected keyword g"),
    (["build", "--preset", "cubic_d3", "--h", "4"],
     "preset cubic_d3: takes d, g, alphas; got unexpected keyword h"),
])
def test_preset_parameter_error_names_the_preset(capsys, argv, err):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_residual_exit_writes_one_stderr_line(capsys):
    assert main(["verify", "--preset", "matsumoto", "--corrupt-phase"]) == 5
    captured = capsys.readouterr()
    reports = json.loads(captured.out)["reports"]
    failed = sum(not r["passed"] for r in reports)
    assert failed > 0
    lines = captured.err.splitlines()
    assert lines == [f"residual: {failed} of {len(reports)} reports exceed their tolerance"]


_LONG_INT = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize("argv,code,err", [
    (["--W", "<file>"], 0, ""),
    (["--W", "@<missing>"], 1, "error: cannot read input: [Errno 2] "),
    (["--W", f"[[{_LONG_INT}]]"], 1, "error: matrix entry must be a finite number or "
                                     f"[re, im] of finite numbers, got {_LONG_INT}\n"),
    (["--W", "[[[0, 1]]]", "--P", '{"rows": 1}'], 1,
     "error: --P must be a serialized exact matrix with an 'entries' key\n"),
], ids=["W-plain-path", "W-missing-file", "W-entry-too-large", "P-no-entries"])
def test_eval_reads_a_path_and_names_bad_inputs(tmp_path, capsys, argv, code, err):
    path = tmp_path / "w.json"
    path.write_text("[[[0, 1]]]")
    argv = [a.replace("<file>", str(path)).replace("<missing>", str(tmp_path / "none"))
            for a in argv]
    assert main(["eval", "--d", "1", *argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == (code != 0)
    if code == 0:
        assert json.loads(captured.out)["lattice_points_used"] == 49
