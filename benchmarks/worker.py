"""One benchmark pass: run every unit of a workload once, in a fresh process.

    python3 benchmarks/worker.py --workload suite [--trace]

`run.py` starts this with ``src`` on ``PYTHONPATH``.  The pass imports
iqtheta, builds the workload's units (set-up), then times each unit with the
iqtheta calls it makes and checks its outputs.  It prints one JSON object:
per-unit seconds, machine speed and verdicts, exact counts, peak RSS, the
set-up clock readings and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import draws  # the benchmark's own generator

SUITE_EPS = 1e-12
RESID_GATE = 1e-8

# The host this benchmark was built on runs at speeds that drift by up to
# 1.6x over minutes, and a run is too short to average that out.  A fixed
# interpreter loop, timed between units, measures the current speed; unit
# times divided by it are in seconds at the reference speed CAL_REF_S.
CAL_LOOPS = 40_000
CAL_REF_S = 0.003  # the loop's best time on a quiet 2-core Xeon VM
CAL_EVERY_S = 0.25


def speed() -> float:
    """Calibration loop time over its reference time (above 1: slower)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best / CAL_REF_S


def suite_units(iqtheta):
    return [{"entry": entry} for entry in iqtheta.DEFAULT_SUITE_PLAN]


def random_relation_units(iqtheta):
    import numpy as np

    kmatrix = iqtheta.KMatrix.from_json
    units = []
    for raw in draws.load_units("random_relations"):
        field = iqtheta.FieldId(raw["d"])
        unit = dict(raw, field=field, T=kmatrix(raw["T"], field))
        rel = raw["relation"]
        if rel is not None:
            unit["relation"] = {
                "P": kmatrix(rel["P"], field),
                "A0": kmatrix(rel["A0"], field),
                "B0": kmatrix(rel["B0"], field),
                "W": np.array([[complex(re, im) for re, im in row]
                               for row in rel["W"]]),
            }
        units.append(unit)
    return units


def decompose_units(iqtheta):
    units = []
    for raw in draws.load_units("decompose"):
        rows = [[Fraction(n, d) for n, d in row] for row in raw["spec"]["P"]]
        units.append({
            "argv": ["decompose", "--spec", json.dumps(raw["spec"]),
                     "--W", json.dumps(raw["W"]), "--eps", "1e-13"],
            "det": draws.frac_det(rows),
            "tiny": raw["tiny"],
        })
    return units


# Each runner returns (seconds, verdict).  A verdict holds "ok", the
# residual when the unit was verified, exact counts from public outputs and,
# for the suite, "parts": the per-report seconds inside the unit's time.


def run_suite(iqtheta, unit):
    params = iqtheta.ThetaParams(eps=SUITE_EPS)
    t0 = time.perf_counter()
    res = iqtheta.run_paper_suite(params=params, threads=1, plan=[unit["entry"]])
    dt = time.perf_counter() - t0
    reports = res.reports
    ok = all(r["passed"] and r["residual_rel"] < RESID_GATE for r in reports)
    return dt, {
        "ok": ok,
        "parts": res.seconds,
        "resid": max(r["residual_rel"] for r in reports),
        "reports": len(reports),
        "theta_evals": sum(r["theta_evals"] for r in reports),
        "cache_hits": sum(r["cache_hits"] for r in reports),
        "terms": sum(r["term_count"] for r in reports),
    }


def run_random_relation(iqtheta, unit):
    field, g, h, T = unit["field"], unit["g"], unit["h"], unit["T"]
    rel = unit["relation"]
    params = iqtheta.ThetaParams(eps=draws.REL_EPS)
    t0 = time.perf_counter()
    orders = draws.group_orders(g, h, T)
    rep = None
    if rel is not None:
        spec = iqtheta.RelationSpec(field, g, T, rel["P"], rel["A0"], rel["B0"])
        rep = iqtheta.evaluate_relation(iqtheta.build_relation(spec),
                                        rel["W"], params)
    dt = time.perf_counter() - t0
    # the replay must take the sampler's branches: same orders, same "tiny"
    ok = list(orders) == unit["orders"]
    verdict = {"ok": ok, "resid": None}
    if rep is not None:
        tiny = min(abs(rep.lhs), abs(rep.rhs)) < 1e-3
        ok = ok and tiny == unit["tiny"]
        if not tiny:
            ok = ok and rep.passed and rep.residual_rel < RESID_GATE
            verdict["resid"] = rep.residual_rel
        verdict.update(ok=ok, theta_evals=rep.theta_evals,
                       cache_hits=rep.cache_hits, terms=rep.term_count)
    return dt, verdict


def run_decompose(iqtheta, unit):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = iqtheta.cli.main(unit["argv"])
    dt = time.perf_counter() - t0
    try:
        out = json.loads(buf.getvalue())
    except ValueError:
        return dt, {"ok": False, "resid": None, "exit": code}
    det = Fraction(*out["lambda_product"])
    poly = complex(*out["poly_value"])
    direct = complex(*out["direct_value"])
    tiny = max(abs(poly), abs(direct)) < 1e-3
    ok = (code == 0 and out["passed"] is True and det == unit["det"]
          and tiny == unit["tiny"])
    # a "tiny" value has no meaningful relative residual
    return dt, {"ok": ok, "resid": None if tiny else out["residual_rel"],
                "exit": code, "monomials": out["monomial_count"]}


WORKLOADS = {
    "suite": (suite_units, run_suite),
    "random_relations": (random_relation_units, run_random_relation),
    "decompose": (decompose_units, run_decompose),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (a set-up time sample)")
    args = ap.parse_args(argv)

    make_units, run_unit = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    import iqtheta
    import iqtheta.cli  # noqa: F401  (decompose drives the CLI layer)

    import_s = time.perf_counter() - t0
    units = make_units(iqtheta)
    # set-up ends here; run.py started its clock before this process, so
    # both read the system-wide monotonic clock
    out = {"mono_ready": time.monotonic(), "import_s": import_s,
           "units": len(units), "speed": speed()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    speeds = [out["speed"]]
    last_speed = time.perf_counter()
    before = []  # per unit, the index of the last speed reading before it
    for unit in units:
        try:
            dt, verdict = run_unit(iqtheta, unit)
        except Exception as exc:  # a failed unit is counted, never fatal
            dt, verdict = 0.0, {"ok": False, "resid": None, "error": repr(exc)}
        results.append(dict(verdict, s=dt))
        before.append(len(speeds) - 1)
        if time.perf_counter() - last_speed >= CAL_EVERY_S:
            speeds.append(speed())
            last_speed = time.perf_counter()
    speeds.append(speed())
    for r, i in zip(results, before):  # the readings on either side of a unit
        r["speed"] = (speeds[i] + speeds[i + 1]) / 2
    out["results"] = results
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
