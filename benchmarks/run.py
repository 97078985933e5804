"""iqtheta benchmark: three seeded workloads, timed end to end.

    python3 benchmarks/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --all [--trace 1]     # every workload, as a table

Run from the repository root; the benchmark imports iqtheta from ``src``.
Each run makes passes over the workload's fixed units, in a fixed order,
one fresh ``worker.py`` process per pass and one pass after another; the
number of passes is ``--seconds`` over the workload's budget per pass.  The
units are the same for every ``--seed``, which is only recorded: a random
draw's cost and residual vary by orders of magnitude from one draw to the
next, so the draws are fixed at the test suite's seed (see ``draws.py``) and
a run measures the program, not the draw.  The order is fixed too, because
peak memory depends on it.

End-to-end metrics (``--trace 0``):

* ``setup_s``: interpreter start to the first timed unit (import iqtheta,
  build the units), median of every pass and a few set-up-only processes.
* ``run_s``: each unit's fastest time over the run's passes, summed (for
  the suite, each report's fastest time plus the rest of its entry's).

Both times are in seconds at a reference machine speed: each is divided by
the speed that ``worker.py`` measures around it with a fixed calibration
loop, because the host's speed drifts by up to 1.6x over minutes.  The
unscaled ``run_s`` and the median speed are printed with the provenance.

* ``peak_rss_mb``: the largest peak resident set of a pass process.
* ``passed_ratio``: unit executions that passed their gate / executions.
* ``max_resid_rel``: worst relative residual over the verified units.

``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes), the
import time, and the tracing overhead (traced minus untraced ``run_s``).

The last line of standard output is the result object; the line before it
holds the provenance and diagnostics.  A mismatch of the exact counts across the passes of a
run, or across runs of the same sources, marks the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(BENCH_DIR, ".state", "counts.json")

WORKLOADS = ("suite", "random_relations", "decompose")
# Seconds budgeted for one pass (a 2-core Xeon VM takes 7-13 s for a suite
# pass).  A run makes --seconds // budget passes, at least two: a count that
# does not depend on the speed of the code, so the fastest-of-passes
# estimate has the same bias on both sides of a comparison.
PASS_S = {"suite": 10.0, "random_relations": 15.0, "decompose": 6.0}
MIN_PASSES = 2
SETUP_SAMPLES = 9  # passes plus set-up-only processes
HARD_LIMIT_S = 170.0   # every run must end within 180 s
BLAS_THREADS = "1"
SUITE_REPORTS = 138

EXACT_LAYER_COUNTS = ("thetas.points", "thetas.evals", "thetas.cache_hits",
                      "relations.terms", "lattices.reps", "relations.monomials")
PUBLIC_COUNTS = ("reports", "theta_evals", "cache_hits", "terms", "monomials")


class BenchError(Exception):
    pass


def _metric_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workload: str, deadline: float, *flags) -> dict:
    """Run one worker process to completion; returns its JSON plus timings."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["mono_ready"] - t_spawn
    return out


def _public_counts(results: list) -> dict:
    return {k: sum(r.get(k, 0) for r in results) for k in PUBLIC_COUNTS}


def _source_digest() -> str:
    """Digest of the program and benchmark sources, keying the count record."""
    h = hashlib.sha256()
    for top in (SRC, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", ".state"))
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _check_recorded_counts(key: str, counts: dict) -> bool:
    """Compare counts with the ones an earlier run of the same sources saw."""
    try:
        with open(STATE, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    if key in record:
        return record[key] == counts
    record[key] = counts
    os.makedirs(os.path.dirname(STATE), exist_ok=True)
    with open(STATE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return True


def _fastest_sum(passes: list, scaled: bool = True) -> float:
    """Sum over units of each unit's fastest time across the passes.

    A unit with timed parts (the suite's reports) counts the fastest time of
    each part plus the fastest time of the rest of the unit.  Scaled times
    are divided by the machine speed measured around the unit.
    """
    total = 0.0
    for unit in zip(*(p["results"] for p in passes)):
        speeds = [r["speed"] if scaled else 1.0 for r in unit]
        parts = [r.get("parts", []) for r in unit]
        total += min((r["s"] - sum(pp)) / v
                     for r, pp, v in zip(unit, parts, speeds))
        total += sum(min(x / v for x, v in zip(col, speeds))
                     for col in zip(*parts))
    return total


def measure(workload: str, seconds: float, trace: bool) -> dict:
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    # one discarded set-up pass compiles bytecode in a fresh checkout
    _spawn(workload, hard_deadline, "--setup-only")
    n = max(MIN_PASSES, int(seconds // PASS_S[workload]))
    if trace:  # alternate traced and untraced passes, at least two of each
        kinds = [True, False] * max(MIN_PASSES, n // 2)
    else:
        kinds = [False] * n
    passes = []
    for traced in kinds:
        p = _spawn(workload, hard_deadline, *(("--trace",) if traced else ()))
        p["traced"] = traced
        passes.append(p)
    probes = [_spawn(workload, hard_deadline, "--setup-only")
              for _ in range(max(2, SETUP_SAMPLES - len(passes)))]

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    executions = [r for p in passes for r in p["results"]]
    failed = sum(1 for r in executions if not r["ok"])
    resids = [r["resid"] for r in executions if r["resid"] is not None]
    problems = []
    if failed:
        bad = next(r for r in executions if not r["ok"])
        problems.append(f"{failed} failed unit executions, e.g. {bad}")
    if not resids:
        problems.append("no unit was verified")
    if workload == "suite":
        reports = {_public_counts(p["results"])["reports"] for p in passes}
        if reports != {SUITE_REPORTS}:
            problems.append(f"suite reports {sorted(reports)} != {SUITE_REPORTS}")

    # exact counts: the same in every pass of this run and in every run of
    # the same sources
    exact = {"public": [_public_counts(p["results"]) for p in passes]}
    if traced_passes:
        exact["layers"] = [{k: p["layers"][k] for k in EXACT_LAYER_COUNTS}
                           for p in traced_passes]
    digest = _source_digest()
    for kind, seen in exact.items():
        if any(c != seen[0] for c in seen):
            problems.append(f"{kind} counts differ across passes: {seen}")
        elif not _check_recorded_counts(f"{workload}:{kind}:{digest}", seen[0]):
            problems.append(f"{kind} counts differ from an earlier run: {seen[0]}")

    if trace:
        # median_low keeps the counts integers
        metrics = {name: statistics.median_low(p["layers"][name]
                                               for p in traced_passes)
                   for name in traced_passes[0]["layers"]}
        metrics["setup.import_s"] = statistics.median(
            p["import_s"] for p in passes + probes)
        metrics["trace.overhead_s"] = (_fastest_sum(traced_passes)
                                       - _fastest_sum(plain))
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] / p["speed"]
                                         for p in passes + probes),
            "run_s": _fastest_sum(plain),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
            "passed_ratio": (len(executions) - failed) / len(executions),
            "max_resid_rel": max(resids, default=0.0),
        }
    units = _metric_units()
    return {
        "correct": not problems,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
        "units": passes[0]["units"],
        "diagnostics": {
            "passes": len(passes),
            "unscaled_run_s": _fastest_sum(plain, scaled=False),
            "median_speed": statistics.median(
                r["speed"] for p in passes for r in p["results"]),
        },
    }


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int, unit_counts: dict) -> dict:
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "worker_processes": 1,
        "seed": seed,
        "units": unit_counts,
    }


def _print_table(rows: list, title: str) -> None:
    print(title)
    for workload, name, m in rows:
        print(f"  {workload:<17} {name:<24} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print every metric")
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload or --all")
    if not os.path.isfile(os.path.join(SRC, "iqtheta", "__init__.py")):
        print(f"error: no iqtheta sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.all else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = measure(w, args.seconds, bool(args.trace))
            if args.all and args.trace:
                results[w]["plain"] = measure(w, args.seconds, False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, res in results.items():
        for p in res["problems"] + res.get("plain", {}).get("problems", []):
            print(f"{w}: {p}", file=sys.stderr)
    print(json.dumps({
        "provenance": provenance(args.seed,
                                 {w: r["units"] for w, r in results.items()}),
        "diagnostics": {w: r.get("plain", r)["diagnostics"]
                        for w, r in results.items()},
    }))

    if args.all:
        e2e = [(w, k, m) for w, r in results.items()
               for k, m in r.get("plain", r)["metrics"].items()]
        _print_table(e2e, "end-to-end metrics")
        if args.trace:
            _print_table([(w, k, m) for w, r in results.items()
                          for k, m in r["metrics"].items()], "per-layer metrics")
        ok = all(r["correct"] and r.get("plain", r)["correct"]
                 for r in results.values())
        print("all outputs correct" if ok else "INCORRECT outputs, see stderr")
        return 0 if ok else 1

    res = results[args.workload]
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
