"""The names and entry points that the benchmark under benchmarks/ relies on.

`benchmarks/tracing.py` wraps iqtheta functions by name and patches
`ThetaCache.get_or_compute`, and `benchmarks/draws.py` and
`benchmarks/worker.py` import iqtheta names inside their functions.  Renaming any of them breaks the benchmark (and its
``--trace`` pass) without failing another test.  The benchmark files are
only read here, never written.
"""

import ast
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from iqtheta import (
    FieldId,
    KMatrix,
    RelationSpec,
    ThetaParams,
    build_relation,
    character_group,
    decompose_rational_P,
    riemann_theta_z0,
    run_paper_suite,
    shift_group,
    theta_check_variant,
    theta_general,
)
from iqtheta import thetas
from iqtheta.lattices import quotient_group, quotient_lattices

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # keep benchmarks/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_wrapped_names_resolve():
    tracing = _load("tracing")
    for layer, attr, _ in tracing.WRAPPED:
        obj = importlib.import_module(f"iqtheta.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{layer}.{attr}"
        assert callable(obj), f"{layer}.{attr}"


def test_benchmark_imports_exist():
    # every `from iqtheta... import name`, every attribute read of a name so
    # imported (the tracer's `ThetaCache.get_or_compute`) and every
    # `iqtheta.name` attribute read in the draw generator, the worker and
    # the tracer
    for name in ("draws", "worker", "tracing"):
        tree = ast.parse((BENCH / f"{name}.py").read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("iqtheta"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                assert hasattr(imported[node.value.id], node.attr), (
                    f"{node.value.id}.{node.attr}"
                )
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "iqtheta"):
                assert hasattr(importlib.import_module("iqtheta"), node.attr) or (
                    importlib.util.find_spec(f"iqtheta.{node.attr}") is not None
                ), f"iqtheta.{node.attr}"


def _T(field):
    return KMatrix([[field.element(1, 1), field.zero()],
                    [field.element(0, 1), field.from_rational(2)]])


def test_group_orders_match_groups():
    draws = _load("draws")
    field = FieldId(2)
    T = _T(field)
    for g in (1, 2):
        assert draws.group_orders(g, 2, T) == (
            shift_group(g, T).order,
            character_group(g, T).order,
        )


def test_suite_entry_point_runs():
    res = run_paper_suite(
        params=ThetaParams(eps=1e-12), threads=1, plan=[("jacobi_identity", {})]
    )
    assert res.reports and all(r["passed"] for r in res.reports)
    assert len(res.seconds) == len(res.reports)
    for key in ("residual_rel", "theta_evals", "cache_hits", "term_count"):
        assert all(key in r for r in res.reports)


def test_trace_counts_read_results():
    # every count the tracer takes from a wrapped call's result (terms,
    # monomials, representatives, points) reads the result that call
    # returns, so a traced pass cannot break on the shape of a relation, a
    # decomposition, a quotient group or a theta value
    tracing = _load("tracing")
    field = FieldId(2)
    T = _T(field)
    P = KMatrix.from_rational_rows([[2, 1], [1, 2]], field)
    A0 = KMatrix.from_rational_rows([[Fraction(1, 3), Fraction(1, 4)]], field)
    B0 = KMatrix.from_rational_rows([[Fraction(1, 5), 0]], field)
    W = [[0.1 + 1.1j]]
    inst = build_relation(RelationSpec(field, 1, T, P, A0, B0))
    dec = decompose_rational_P(field, 1, P, A0, B0)
    group = quotient_group(*quotient_lattices(1, T.inverse()), field, 1, 2)
    at = thetas._at(np.array(W))
    (leaf,) = thetas._lower(field, P, A0, B0, ThetaParams())
    # the tracer counts the compiled rows themselves, so a traced pass
    # builds no term object
    assert inst.terms is inst.rhs.rows
    assert dec.monomials is dec.expansion.rows
    results = {
        "relations.build_relation": (inst, len(inst.rhs.rows)),
        "relations.decompose_rational_P": (dec, len(dec.expansion.rows)),
        "lattices.quotient_group": (group, group.order),
        "thetas.theta_general": theta_general(field, W, P, A0, B0),
        "thetas.theta_check_variant": theta_check_variant(field, A0.column(0), B0.column(0), W),
        "thetas.riemann_theta_z0": riemann_theta_z0([Fraction(1, 2)], [0], W),
        "thetas._theta_dense": thetas._theta_dense(leaf, at.w, at.lam_y),
    }
    for name, result in results.items():
        if isinstance(result, thetas.ThetaValue):
            results[name] = (result, result.lattice_points_used)
    counted = set()
    for layer, attr, count in tracing.WRAPPED:
        if count is not None:
            result, want = results[f"{layer}.{attr}"]
            assert count(result) == want > 1, f"{layer}.{attr}"
            counted.add(f"{layer}.{attr}")
    assert counted == set(results)
