"""Seeded draws for the random_relations and decompose workloads.

The two samplers below reproduce the randomized acceptance criteria of the
test suite: criterion 4 (random relation verification) and criterion 7
(rational P decomposition).  Draws and rejection rules are the same as
there; only the seed is an argument.  A sampler records every attempt that
reaches the program, so the benchmark can replay the attempts as units
without re-running the sampler.

    python3 benchmarks/draws.py           # rewrite benchmarks/data/*.json
    python3 benchmarks/draws.py --check   # full-length self-test

The data files hold the prefix of each draw that the workloads replay.
``--check`` runs both samplers at full length, checks the criteria's
outcomes (50 cases with 31 nontrivial G2; 20 decompositions) and checks
that the committed files equal a fresh draw.  Both commands need ``src`` on
``PYTHONPATH``; the self-test takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

DEFAULT_SEED = 20260815
REL_EPS = 1e-13
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Workload prefixes: the first 16 cases of criterion 4 visit every
# (d, g, h) shape once; 8 decompositions alternate h = 2 and h = 3.
RANDOM_RELATIONS_CASES = 16
DECOMPOSE_CASES = 8


# -- exact helpers -------------------------------------------------------------


def frac_det(rows) -> Fraction:
    """Exact determinant of a rational matrix by Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f:
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def _frac_solve(a, b):
    """x with a x = b for a nonsingular rational matrix a."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _pair(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def _complex_rows(W) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in W]


# -- criterion 4: random relations ----------------------------------------------
#
# Draws are rejected when:
#   * T is singular or has smallest singular value below 0.4 ("sing"),
#   * |G1| * |G2| exceeds 128 summation terms ("work"),
#   * the lattice-enumeration estimate for one verification exceeds 4e6
#     points ("cost"; ball-volume model on both sides of the relation),
#   * either side is smaller than 1e-3 in absolute value ("tiny").


def _embed_mat(M) -> np.ndarray:
    return np.array([[M[(i, j)].embed() for j in range(M.cols)]
                     for i in range(M.rows)])


def group_orders(g: int, h: int, T) -> tuple[int, int]:
    """|G1| and |G2| of T without materializing representatives."""
    from iqtheta.lattices import (
        index_in,
        lattice_image,
        lattice_intersect,
        standard_matrix_lattice,
    )

    std = standard_matrix_lattice(g, h)
    img1 = lattice_image(g, h, T.conj_transpose())
    img2 = lattice_image(g, h, T.inverse())
    o1 = index_in(img1, lattice_intersect(img1, std))
    o2 = index_in(img2, lattice_intersect(img2, std))
    return o1, o2


def _theta_cost(m_c, lam_y, g, h, field):
    """Estimated lattice points for one theta evaluation, None if hopeless."""
    from iqtheta import TruncationError, choose_radius

    lam = float(np.linalg.eigvalsh(m_c)[0])
    if lam <= 0.05:
        return None
    diag = bool(np.all(np.abs(m_c - np.diag(np.diag(m_c))) < 1e-12))
    dim = 2 * g if diag else 2 * g * h
    covol = field.delta_complex.imag ** (g if diag else g * h)
    try:
        r = choose_radius(REL_EPS, math.pi * lam_y * lam, dim,
                          offset_norm=1.5, max_radius=16.0)
    except TruncationError:
        return None
    per = (math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)) * r ** dim / covol
    return (h * per) if diag else per


def _light_T(field, h, r):
    from iqtheta import KMatrix

    def x():
        return Fraction(r.randint(-2, 2), r.choice((1, 2)))

    return KMatrix([[field.element(x(), x()) for _ in range(h)]
                    for _ in range(h)])


def _heavy_T(field, h, r, allow_mu):
    from iqtheta import KMatrix

    # near-monomial shape: keeps the spectral gap of Q = T*PT large enough
    # for dense enumeration once g*h reaches 4
    one = field.one()
    zero = field.zero()
    diag = [r.choice(field.units()) for _ in range(h)]
    diag[r.randrange(h)] = diag[r.randrange(h)] * r.choice(
        [Fraction(1, 2), Fraction(2)]
    )
    rows = [[diag[i] if i == j else zero for j in range(h)] for i in range(h)]
    if allow_mu and r.random() < 0.5:
        i, j = r.sample(range(h), 2)
        rows[i][j] = rows[i][j] + r.choice(
            [one, -one, field.delta(), -field.delta()]
        )
    perm = list(range(h))
    r.shuffle(perm)
    return KMatrix([rows[p] for p in perm])


def _rand_P(field, h, r, force_diag):
    from iqtheta import KMatrix

    eighth = Fraction(1, 8)
    entries = [[field.zero()] * h for _ in range(h)]
    for i in range(h):
        entries[i][i] = field.from_rational(r.choice([Fraction(3, 2),
                                                      Fraction(2)]))
    if not force_diag:
        for i in range(h):
            for j in range(i + 1, h):
                x = field.element(r.choice([0, eighth, -eighth]),
                                  r.choice([0, eighth, -eighth]))
                entries[i][j] = x
                entries[j][i] = x.conj()
    return KMatrix(entries)


def _rand_char(field, g, h, r):
    from iqtheta import KMatrix

    def x():
        return Fraction(r.randint(-1, 1), r.choice((2, 3, 4)))

    return KMatrix([[field.element(x(), x()) for _ in range(h)]
                    for _ in range(g)])


def _rand_W(g, h, npr):
    if g == 1:
        return np.array([[npr.uniform(-0.3, 0.3) + 1j * npr.uniform(0.6, 1.0)]])
    base = 2.0 if h == 2 else 1.0
    s = npr.standard_normal((g, g)) * 0.2
    sym = (s + s.T) / 2
    a = npr.standard_normal((g, g)) * 0.3
    h_pd = a @ a.T / g + base * np.eye(g)
    return sym + 1j * h_pd


def draw_random_relations(seed: int = DEFAULT_SEED, cases: int = 50) -> dict:
    """Run the criterion-4 sampler until `cases` relations are counted.

    Returns the attempts that reached the exact group-order screen, each
    with the screen's outcome, the relation inputs when the draw passed the
    cost screen, and whether the evaluated relation was "tiny".
    """
    from iqtheta import (
        FieldId,
        RelationSpec,
        ThetaParams,
        build_relation,
        evaluate_relation,
    )

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    shapes = [(d, g, h) for d in (1, 2, 3, 7) for g in (1, 2) for h in (2, 3)]
    params = ThetaParams(eps=REL_EPS)
    done = attempts = nontrivial_g2 = 0
    worst = 0.0
    failures = []
    units = []
    while done < cases and attempts < 5000:
        d, g, h = shapes[done % len(shapes)]
        attempts += 1
        field = FieldId(d)
        heavy = g * h >= 4
        T = (_heavy_T(field, h, rng, allow_mu=(g * h == 4)) if heavy
             else _light_T(field, h, rng))
        t_c = _embed_mat(T)
        if abs(np.linalg.det(t_c)) < 1e-9:
            continue
        if np.linalg.svd(t_c, compute_uv=False)[-1] < 0.4:
            continue
        o1, o2 = group_orders(g, h, T)
        unit = {"d": d, "g": g, "h": h, "T": T.to_json(), "orders": [o1, o2],
                "relation": None, "tiny": False, "counted": False}
        units.append(unit)
        if o1 * o2 > 128:
            continue
        P = _rand_P(field, h, rng, force_diag=(g * h >= 6))
        W = _rand_W(g, h, nprng)
        lam_y = float(np.linalg.eigvalsh((W - W.conj().T) / 2j)[0])
        p_c = _embed_mat(P)
        q_c = t_c.conj().T @ p_c @ t_c
        est_rhs = _theta_cost(p_c, lam_y, g, h, field)
        est_lhs = _theta_cost(q_c, lam_y, g, h, field)
        if est_rhs is None or est_lhs is None or est_lhs + o1 * o2 * est_rhs > 4e6:
            continue
        A0 = _rand_char(field, g, h, rng)
        B0 = _rand_char(field, g, h, rng)
        unit["relation"] = {"P": P.to_json(), "A0": A0.to_json(),
                            "B0": B0.to_json(), "W": _complex_rows(W)}
        try:
            inst = build_relation(RelationSpec(field, g, T, P, A0, B0))
            rep = evaluate_relation(inst, W, params)
        except Exception as exc:
            failures.append((d, g, h, repr(exc)))
            done += 1
            unit["counted"] = True
            continue
        if min(abs(rep.lhs), abs(rep.rhs)) < 1e-3:
            unit["tiny"] = True
            continue
        if o2 > 1:
            nontrivial_g2 += 1
        worst = max(worst, rep.residual_rel)
        if not (rep.passed and rep.residual_rel < 1e-8):
            failures.append((d, g, h, rep.residual_rel))
        done += 1
        unit["counted"] = True
    return {"seed": seed, "cases": done, "attempts": attempts,
            "nontrivial_g2": nontrivial_g2, "max_resid": worst,
            "failures": failures, "units": units}


# -- criterion 7: rational P decomposition --------------------------------------
#
# Same rejection discipline as criterion 4: the pivot-chain work estimate
# (product over levels of the fourth power of the solved-column denominator
# lcm) is capped at 4096 summands, the dense reference evaluation at 2e6
# lattice points, and near-zero values (< 1e-3) are redrawn.


def _schur_work(p_rows):
    """Pivot positivity screen plus monomial-count estimate, None if not PD."""
    cur = [[Fraction(x) for x in row] for row in p_rows]
    work = 1
    while len(cur) > 1:
        hh = len(cur)
        p1 = [row[1:] for row in cur[1:]]
        r = cur[0][1:]
        if frac_det(p1) == 0:
            return None
        x = _frac_solve(p1, r)
        lam = cur[0][0] - sum(ri * xi for ri, xi in zip(r, x))
        if lam <= 0:
            return None
        dp = 1
        for i in range(hh - 1):
            dp *= x[i].denominator
        work *= dp**4
        cur = p1
    if cur[0][0] <= 0:
        return None
    return work


def _dense_cost(field, p_rows, y):
    h = len(p_rows)
    lmin = float(np.linalg.eigvalsh(
        np.array([[float(x) for x in row] for row in p_rows])).min())
    if lmin <= 0:
        return float("inf")
    decay = math.pi * y * lmin
    dim = 2 * h
    r = math.sqrt(math.log(1e13) / decay) + 1.5
    vball = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    return vball * r**dim / field.delta_complex.imag**h


def draw_decompositions(seed: int = DEFAULT_SEED, cases: int = 20) -> dict:
    """Run the criterion-7 sampler until `cases` decompositions are counted.

    Returns the draws that passed the screens, each as the `decompose`
    command's spec and W, with whether its value was "tiny".
    """
    from iqtheta import (
        FieldId,
        KMatrix,
        ThetaParams,
        decompose_rational_P,
        theta_general,
    )

    rng = random.Random(seed)
    params = ThetaParams(eps=REL_EPS)
    done = attempts = 0
    worst = 0.0
    failures = []
    units = []
    while done < cases and attempts < 5000:
        attempts += 1
        h = 2 + (done % 2)
        d = (1, 2, 3, 7)[attempts % 4]
        field = FieldId(d)
        rows = [[Fraction(0)] * h for _ in range(h)]
        for i in range(h):
            rows[i][i] = Fraction(rng.choice([2, 3, 4, 5, 6]),
                                  rng.choice([1, 2]))
            for j in range(i):
                x = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                rows[i][j] = rows[j][i] = x
        work = _schur_work(rows)
        if work is None or work > 4096:
            continue
        y = 0.9 + 0.2 * rng.random()
        if _dense_cost(field, rows, y) > 2e6:
            continue
        P = KMatrix.from_rational_rows(rows, field)
        A0 = KMatrix([[field.element(Fraction(rng.randint(-1, 1),
                                              rng.choice([2, 3])),
                                     Fraction(rng.randint(-1, 1),
                                              rng.choice([2, 3])))
                       for _ in range(h)]])
        B0 = KMatrix([[field.element(Fraction(rng.randint(-1, 1), 2))
                       for _ in range(h)]])
        unit = {"spec": {"d": d, "g": 1,
                         "P": [[_pair(x) for x in row] for row in rows],
                         "A0": A0.to_json(), "B0": B0.to_json()},
                "W": [[[0.0, y]]], "tiny": False, "counted": False}
        units.append(unit)
        try:
            dec = decompose_rational_P(field, 1, P, A0, B0)
            det = frac_det(rows)
            if dec.lambda_product() != det:
                failures.append((rows, "det", dec.lambda_product(), det))
            if not all(lam > 0 for lam in dec.lambdas):
                failures.append((rows, "pivot sign"))
            W = [[complex(0.0, y)]]
            poly = dec.evaluate(W, params=params)
            dense = theta_general(field, W, P, A0, B0, params=params).value
        except Exception as exc:
            failures.append((rows, repr(exc)))
            done += 1
            unit["counted"] = True
            continue
        if max(abs(poly), abs(dense)) < 1e-3:
            unit["tiny"] = True
            continue
        resid = abs(poly - dense) / max(abs(poly), abs(dense))
        worst = max(worst, resid)
        if resid >= 1e-8:
            failures.append((rows, resid))
        done += 1
        unit["counted"] = True
    return {"seed": seed, "cases": done, "attempts": attempts,
            "max_resid": worst, "failures": failures, "units": units}


# -- data files -----------------------------------------------------------------


def data_path(workload: str) -> str:
    return os.path.join(DATA_DIR, f"{workload}.json")


def load_units(workload: str) -> list:
    return _read(data_path(workload))["units"]


def _prefix_file(draw: dict, cases: int) -> dict:
    """The draw's units up to and including its `cases`-th counted case."""
    units = draw["units"]
    counted = 0
    for n, unit in enumerate(units):
        if unit["counted"]:
            counted += 1
            if counted == cases:
                return {"seed": draw["seed"], "cases": cases,
                        "units": units[: n + 1]}
    raise ValueError(f"draw has fewer than {cases} counted cases")


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true",
                    help="run both samplers at full length and compare")
    args = ap.parse_args(argv)

    rr = draw_random_relations(cases=50 if args.check else RANDOM_RELATIONS_CASES)
    dc = draw_decompositions(cases=20 if args.check else DECOMPOSE_CASES)
    rr_file = _prefix_file(rr, RANDOM_RELATIONS_CASES)
    dc_file = _prefix_file(dc, DECOMPOSE_CASES)
    if not args.check:
        os.makedirs(DATA_DIR, exist_ok=True)
        _write(data_path("random_relations"), rr_file)
        _write(data_path("decompose"), dc_file)
        print(f"random_relations: {len(rr_file['units'])} units; "
              f"decompose: {len(dc_file['units'])} units")
        return 0
    problems = []
    if (rr["cases"], rr["nontrivial_g2"], rr["failures"]) != (50, 31, []):
        problems.append(f"criterion 4: cases={rr['cases']} "
                        f"nontrivial_G2={rr['nontrivial_g2']} "
                        f"failures={rr['failures'][:3]}")
    if (dc["cases"], dc["failures"]) != (20, []):
        problems.append(f"criterion 7: cases={dc['cases']} "
                        f"failures={dc['failures'][:2]}")
    # a JSON round trip turns tuples into lists, as in the committed files
    for name, fresh in (("random_relations", rr_file), ("decompose", dc_file)):
        if json.loads(json.dumps(fresh)) != _read(data_path(name)):
            problems.append(f"{data_path(name)} differs from a fresh draw")
    print(f"criterion 4: cases={rr['cases']} attempts={rr['attempts']} "
          f"nontrivial_G2={rr['nontrivial_g2']} max_resid={rr['max_resid']:.2e}")
    print(f"criterion 7: cases={dc['cases']} attempts={dc['attempts']} "
          f"max_resid={dc['max_resid']:.2e}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
