"""Batch command line front-end.

Commands: eval, groups, build, verify, decompose, suite.  All payloads go
to stdout as JSON (suite can also emit CSV); diagnostics go to stderr.

Exit codes: 0 success, 1 parse error, 2 domain violation, 3 truncation
failure, 4 group order cap, 5 residual above tolerance.  Complex numbers
are emitted as [re, im] pairs and exact rationals as [num, den] pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    FieldMismatchError,
    GroupCapError,
    SingularMatrixError,
    SublatticeError,
    TruncationError,
)
from .kfield import FieldId, KMatrix, json_int
from .lattices import character_group, shift_group
from .presets import (
    PRESET_NAMES,
    Preset,
    default_omega_samples,
    default_W_samples,
    make_preset,
    run_paper_suite,
)
from .relations import (
    RelationSpec,
    _check_g,
    _check_term_count,
    _compare_sides,
    _Plans,
    _theta_sum,
    build_relation,
    decompose_rational_P,
    evaluate_relation,
)
from .thetas import ThetaParams, _at, _check_w_shape, theta_general

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_TRUNCATION = 3
EXIT_CAP = 4
EXIT_RESIDUAL = 5


# ValueError subclasses that mean well-formed input outside its domain
_DOMAIN_ERRORS = (DomainError, SingularMatrixError, SublatticeError,
                  FieldMismatchError)


class CliParseError(Exception):
    pass


@contextlib.contextmanager
def _parsing(what: str):
    """Report malformed input raised inside the block as a CliParseError."""
    try:
        yield
    except _DOMAIN_ERRORS:
        raise
    except KeyError as exc:
        raise CliParseError(f"cannot parse {what}: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliParseError(f"cannot parse {what}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the parse code
    def error(self, message: str):
        raise CliParseError(message)


def _read_source(value: str) -> str:
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _load_json(value: str) -> object:
    try:
        return json.loads(_read_source(value))
    except json.JSONDecodeError as exc:
        raise CliParseError(f"invalid JSON input: {exc}") from exc
    except OSError as exc:
        raise CliParseError(f"cannot read input: {exc}") from exc


def _json_real(x: object) -> float:
    """A finite JSON number as a float; bools, strings and numbers a float
    cannot hold (1e400 reads as inf, 10**400 overflows) are rejected."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            v = float(x)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    raise CliParseError(
        f"matrix entry must be a finite number or [re, im] of finite numbers, got {x!r}"
    )


def _entry_to_complex(x: object) -> complex:
    if isinstance(x, list) and len(x) == 2:
        return complex(_json_real(x[0]), _json_real(x[1]))
    return complex(_json_real(x))


def _parse_complex_matrix(value: str, name: str) -> np.ndarray:
    obj = _load_json(value)
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise CliParseError(f"{name} must be a nested JSON array")
    with _parsing(name):
        rows = [[_entry_to_complex(x) for x in row] for row in obj]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise CliParseError(f"{name} has ragged rows")
    return np.array(rows, dtype=np.complex128)


def _parse_kmatrix(value: str, field: FieldId, name: str) -> KMatrix:
    obj = _load_json(value)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise CliParseError(
            f"{name} must be a serialized exact matrix with an 'entries' key"
        )
    with _parsing(name):
        return KMatrix.from_json(obj, field)


def _parse_rational(x: object, name: str) -> Fraction:
    if isinstance(x, list) and len(x) == 2:
        return Fraction(json_int(x[0], name), json_int(x[1], name))
    try:
        return Fraction(json_int(x, name))
    except TypeError:
        raise CliParseError(
            f"{name} entries must be integers or [num, den] pairs"
        ) from None


def _frac_pair(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def _complex_pair(z: complex) -> list:
    return [z.real, z.imag]


def _params_from(args: argparse.Namespace) -> ThetaParams:
    try:
        return ThetaParams(
            eps=args.eps, max_radius=args.max_radius
        )
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


def _emit(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _verdict(passed: Sequence[bool]) -> int:
    """EXIT_OK when every report passed, else EXIT_RESIDUAL with one stderr
    line, as every other nonzero exit has."""
    failed = sum(1 for ok in passed if not ok)
    if not failed:
        return EXIT_OK
    print(f"residual: {failed} of {len(passed)} reports exceed their tolerance",
          file=sys.stderr)
    return EXIT_RESIDUAL


# -- preset / spec resolution --------------------------------------------------


def _preset_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    for key in ("g", "d", "h"):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    return kwargs


def _resolve_preset(args: argparse.Namespace) -> Preset:
    try:
        return make_preset(args.preset, args.max_order, **_preset_kwargs(args))
    except (ValueError, TypeError) as exc:  # both messages name the preset
        raise CliParseError(str(exc)) from exc


def _preset_with_relation(args: argparse.Namespace) -> Preset:
    preset = _resolve_preset(args)
    if preset.relation is None:
        raise DomainError(f"preset {preset.name} carries no relation instance")
    return preset


def _load_spec(path: str) -> RelationSpec:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CliParseError("relation spec must be a JSON object")
    with _parsing("relation spec"):
        return RelationSpec.from_json(obj)


def _require_source(args: argparse.Namespace) -> None:
    """The options of _add_source checked: one source, a cap of at least 1."""
    if bool(getattr(args, "preset", None)) == bool(getattr(args, "spec", None)):
        raise CliParseError("exactly one of --preset or --spec is required")
    if args.max_order < 1:
        raise CliParseError(f"--max-order must be at least 1, got {args.max_order}")


def _random_W(g: int, rng: np.random.Generator, symmetric: bool) -> np.ndarray:
    re = rng.standard_normal((g, g)) * 0.3
    sym_re = (re + re.T) / 2
    if symmetric:
        a = rng.standard_normal((g, g))
        im_pd = a @ a.T / g + 0.5 * np.eye(g)
        return sym_re + 1j * im_pd
    # W = S + i H with S real symmetric and H Hermitian makes
    # (W - W^H)/2i equal to H exactly, so lam_min(Y) >= 1 by construction
    x = rng.standard_normal((g, g)) * 0.3
    y = rng.standard_normal((g, g)) * 0.3
    herm = (y + y.T) / 2 + 1j * (x - x.T) / 2
    lam = float(np.linalg.eigvalsh(herm)[0])
    h_pd = herm + (0.5 - min(lam, 0.0) + 0.5) * np.eye(g)
    return sym_re + 1j * h_pd


# -- commands -------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    params = _params_from(args)
    with _parsing("--d"):
        field = FieldId(args.d)
    w_arr = _parse_complex_matrix(args.W, "--W")
    g = w_arr.shape[0]
    if args.P is not None:
        P = _parse_kmatrix(args.P, field, "--P")
    else:
        P = KMatrix.identity(1, field)
    h = P.rows
    if args.A0 is not None:
        A0 = _parse_kmatrix(args.A0, field, "--A0")
    else:
        A0 = KMatrix.zeros(g, h, field)
    if args.B0 is not None:
        B0 = _parse_kmatrix(args.B0, field, "--B0")
    else:
        B0 = KMatrix.zeros(g, h, field)
    val = theta_general(field, w_arr, P, A0, B0, params)
    _emit(
        {
            "d": args.d,
            "g": g,
            "h": h,
            "value": _complex_pair(val.value),
            "tail_bound": val.tail_bound,
            "lattice_points_used": val.lattice_points_used,
        }
    )
    return EXIT_OK


def _cmd_groups(args: argparse.Namespace) -> int:
    _require_source(args)
    if args.rep_limit < 0:
        raise CliParseError(f"--rep-limit must be non-negative, got {args.rep_limit}")
    if args.preset:
        preset = _preset_with_relation(args)
        name, g, d = preset.name, preset.g, preset.field.d
        G1, G2 = preset.relation.G1, preset.relation.G2
    else:
        spec = _load_spec(args.spec)
        name = spec.name or "spec"
        g, d = spec.g, spec.field.d
        G1 = shift_group(spec.g, spec.T, max_order=args.max_order)
        G2 = character_group(spec.g, spec.T, max_order=args.max_order)
        _check_term_count(G1, G2, args.max_order)
    _emit(
        {
            "name": name,
            "d": d,
            "g": g,
            "G1": G1.to_json(rep_limit=args.rep_limit),
            "G2": G2.to_json(rep_limit=args.rep_limit),
        }
    )
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    _require_source(args)
    if args.preset:
        preset = _preset_with_relation(args)
        inst = preset.relation
        extra = {"expected": preset.expected, "warnings": list(preset.warnings)}
    else:
        inst = build_relation(_load_spec(args.spec), max_order=args.max_order)
        extra = {}
    out = {
        "spec": inst.spec.to_json(),
        "Q": inst.Q.to_json(),
        "scale": _frac_pair(inst.scale),
        "groups": inst.group_metadata(),
    }
    out.update(extra)
    _emit(out)
    return EXIT_OK


def _verify_samples(args: argparse.Namespace, g: int, symmetric: bool) -> list:
    if args.W is not None:
        return [_parse_complex_matrix(args.W, "--W")]
    samples = list(
        default_omega_samples(g) if symmetric else default_W_samples(g)
    )
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        samples.append(_random_W(g, rng, symmetric))
    return samples


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_source(args)
    params = _params_from(args)
    corrupt = "phase" if args.corrupt_phase else None
    reports = []
    warnings: list[str] = []
    if args.preset:
        preset = _resolve_preset(args)
        warnings.extend(preset.warnings)
        label = preset.name
        if preset.relation is not None:
            for idx, W in enumerate(_verify_samples(args, preset.g, False)):
                rep = evaluate_relation(preset.relation, W, params, corrupt=corrupt)
                reports.append(
                    dict(rep.to_json(), check="relation", W_index=idx)
                )
        for check in preset.identity_checks:
            for idx, W in enumerate(
                _verify_samples(args, check.g, check.needs_symmetric_W)
            ):
                rep = check.evaluate(W, params)
                reports.append(
                    dict(name=check.name, **rep.to_json(), check=check.name,
                         W_index=idx)
                )
    else:
        spec = _load_spec(args.spec)
        label = spec.name or "spec"
        inst = build_relation(spec, max_order=args.max_order)
        for idx, W in enumerate(_verify_samples(args, spec.g, False)):
            rep = evaluate_relation(inst, W, params, corrupt=corrupt)
            reports.append(dict(rep.to_json(), check="relation", W_index=idx))
    _emit(
        {
            "name": label,
            "reports": reports,
            "warnings": warnings,
            "all_passed": all(r["passed"] for r in reports),
        }
    )
    return _verdict([r["passed"] for r in reports])


def _cmd_decompose(args: argparse.Namespace) -> int:
    params = _params_from(args)
    obj = _load_json(args.spec)
    if not isinstance(obj, dict):
        raise CliParseError("decompose input must be a JSON object")
    with _parsing("decompose input"):
        field = FieldId(json_int(obj["d"], "d"))
        g = _check_g(json_int(obj["g"], "g"))
        if isinstance(obj["P"], dict):
            P = KMatrix.from_json(obj["P"], field)
        else:
            P = KMatrix.from_rational_rows(
                [[_parse_rational(x, "P") for x in row] for row in obj["P"]], field)
        h = P.rows
        A0, B0 = (
            KMatrix.from_json(obj[key], field)
            if key in obj
            else KMatrix.zeros(g, h, field)
            for key in ("A0", "B0")
        )
    # --W is checked as the evaluation checks it, but before the expansion
    at = None if args.W is None else _at(_parse_complex_matrix(args.W, "--W"))
    if at is not None:
        _check_w_shape(g, at)
    decomp = decompose_rational_P(field, g, P, A0, B0)
    det = decomp.lambda_product()
    out = {
        "d": field.d,
        "g": g,
        "h": h,
        "lambdas": [_frac_pair(x) for x in decomp.lambdas],
        "lambda_product": _frac_pair(det),
        "monomial_count": len(decomp.expansion.rows),
    }
    passed = []
    if at is not None:
        # Theta^P[A0; B0] against the expansion, lowered together; only the
        # residual and the verdict are printed, not the counts
        plans = _Plans(_theta_sum(P, A0, B0), decomp.expansion)
        rep = _compare_sides(plans, at.w, params, len(decomp.expansion.rows))
        out.update(
            {
                "poly_value": _complex_pair(rep.rhs),
                "direct_value": _complex_pair(rep.lhs),
                "residual_rel": rep.residual_rel,
                "tolerance": rep.tolerance,
                "passed": rep.passed,
            }
        )
        passed.append(rep.passed)
    _emit(out)
    return _verdict(passed)


def _cmd_suite(args: argparse.Namespace) -> int:
    params = _params_from(args)
    result = run_paper_suite(params=params, threads=args.threads)
    if args.out == "csv":
        sys.stdout.write(result.to_csv())
    else:
        print(result.to_json())
    return _verdict([r["passed"] for r in result.reports])


# -- parser ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1e-12,
                   help="truncation tail target (default 1e-12)")
    p.add_argument("--max-radius", type=float, default=64.0, dest="max_radius",
                   help="enumeration radius cap (default 64)")


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESET_NAMES),
                   help="worked example name")
    p.add_argument("--spec", help="relation spec JSON (path, @path, or inline)")
    p.add_argument("--g", type=int, help="number of rows of the characteristics")
    p.add_argument("--d", type=int, help="squarefree field parameter")
    p.add_argument("--h", type=int, help="chain length for cartan_Ah")
    p.add_argument("--max-order", type=int, default=10**6, dest="max_order",
                   help="cap on each group's order and on the relation's "
                        "term count |G1|*|G2| (default 1e6)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iqtheta", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one theta value")
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--W", required=True,
                        help="g x g complex matrix JSON ([re, im] entries)")
    p_eval.add_argument("--P", help="exact Hermitian matrix JSON (default [[1]])")
    p_eval.add_argument("--A0", help="exact characteristic matrix JSON")
    p_eval.add_argument("--B0", help="exact characteristic matrix JSON")
    _add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_groups = sub.add_parser("groups", help="compute the characteristic groups")
    _add_source(p_groups)
    p_groups.add_argument("--rep-limit", type=int, default=16, dest="rep_limit",
                          help="cap on listed representatives (default 16)")
    p_groups.set_defaults(func=_cmd_groups)

    p_build = sub.add_parser("build", help="construct a relation instance")
    _add_source(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="numerically verify a relation")
    _add_source(p_verify)
    p_verify.add_argument("--W", help="evaluate only at this matrix")
    p_verify.add_argument("--seed", type=int,
                          help="append one seeded random sample point")
    p_verify.add_argument("--corrupt-phase", action="store_true",
                          dest="corrupt_phase", help=argparse.SUPPRESS)
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_dec = sub.add_parser(
        "decompose",
        help="split a rational positive definite P into one-column factors",
    )
    p_dec.add_argument("--spec", required=True,
                       help="JSON with d, g, P (rational rows), optional A0/B0")
    p_dec.add_argument("--W", help="also cross-check values at this matrix")
    _add_common(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_suite = sub.add_parser("suite", help="run the full worked-example catalog")
    p_suite.add_argument("--all", action="store_true",
                         help="run every preset family (the default)")
    p_suite.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; the suite runs serially")
    p_suite.add_argument("--out", choices=("json", "csv"), default="json")
    _add_common(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


# parse_args leaves a parser as it was, so main builds one on first use
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except GroupCapError as exc:
        print(f"group cap: {exc}", file=sys.stderr)
        return EXIT_CAP
