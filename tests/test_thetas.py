"""Theta evaluators: frozen references, brute-force oracles, invariances."""

import cmath
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from iqtheta import (
    DomainError,
    FieldId,
    KMatrix,
    ThetaCache,
    ThetaParams,
    TruncationError,
    choose_radius,
    default_omega_samples,
    in_type1_domain,
    make_preset,
    riemann_theta_z0,
    shell_tail_bound,
    theta_check_variant,
    theta_general,
)
from iqtheta import thetas
from iqtheta.kfield import hat, re_trace_of_product
from iqtheta.lattices import _int_coords

from _helpers import leaf_phase, reduce_mod_integral

# closed form for the classical value at tau = i: pi^(1/4) / Gamma(3/4)
THETA00_AT_I = math.pi ** 0.25 / math.gamma(0.75)


def _brute_candidates(field, radius):
    dc = field.delta_complex
    span = range(-radius, radius + 1)
    return np.array([u + v * dc for v in span for u in span])


def test_frozen_gaussian_value():
    field = FieldId(1)
    val = theta_general(
        field,
        [[1j]],
        KMatrix.identity(1, field),
        KMatrix.zeros(1, 1, field),
        KMatrix.zeros(1, 1, field),
    )
    # sum over Z[i] of exp(-pi |n|^2) = theta00(i)^2 = sqrt(pi)/Gamma(3/4)^2
    assert val.value == pytest.approx(THETA00_AT_I**2, abs=1e-13)
    assert val.value.real == pytest.approx(1.1803405990160964, abs=1e-14)
    assert abs(val.value.imag) < 1e-15
    assert val.tail_bound < 1e-15
    assert val.lattice_points_used == 49


def test_frozen_riemann_value():
    val = riemann_theta_z0([0.0], [0.0], [[1j]])
    assert val.value == pytest.approx(THETA00_AT_I, abs=1e-13)
    assert val.value.real == pytest.approx(1.0864348112133082, abs=1e-14)


def test_riemann_special_characteristics():
    # theta01(i) = theta00(i) / 2^(1/4); the odd characteristic vanishes
    v00 = riemann_theta_z0([0.0], [0.0], [[1j]]).value
    v01 = riemann_theta_z0([0.0], [0.5], [[1j]]).value
    v10 = riemann_theta_z0([0.5], [0.0], [[1j]]).value
    v11 = riemann_theta_z0([0.5], [0.5], [[1j]]).value
    assert v01 == pytest.approx(v00 * 2 ** (-0.25), abs=1e-12)
    assert v10 == pytest.approx(v01, abs=1e-12)
    assert abs(v11) < 1e-12


def _mp_riemann(a, b, omega, n_max=12):
    """The Riemann theta at z = 0 as a direct sum over the box |n_i| <= n_max
    at 40 digits, from the exact binary values of the float inputs; the
    terms left out are below 1e-40 for lam_min(Im Omega) >= 0.7."""
    g = len(a)
    with mpmath.workdps(40):
        om = [[mpmath.mpc(complex(omega[i][j])) for j in range(g)] for i in range(g)]
        a = [mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in a]
        b = [mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in b]
        total = mpmath.mpc(0)
        for n in itertools.product(range(-n_max, n_max + 1), repeat=g):
            x = [n[i] + a[i] for i in range(g)]
            quad = sum(x[i] * om[i][j] * x[j] for i in range(g) for j in range(g))
            lin = sum(x[i] * b[i] for i in range(g))
            total += mpmath.exp(1j * mpmath.pi * quad + 2j * mpmath.pi * lin)
        return complex(total), total


HALF = Fraction(1, 2)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, -0.2 + 1.5j])
@pytest.mark.parametrize("a,b", [(0, 0), (HALF, 0), (0, HALF), (HALF, HALF),
                                 (Fraction(1, 3), Fraction(-1, 5))])
def test_riemann_matches_mpmath_genus_1(tau, a, b):
    val = riemann_theta_z0([a], [b], [[tau]])
    want, exact = _mp_riemann([a], [b], [[tau]])
    assert abs(val.value - want) <= val.tail_bound + 1e-14
    if b in (0, HALF) and a in (0, HALF):
        # the oracle is Jacobi's theta_3, theta_4, theta_2 or 0 at q = e(tau/2)
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            jt = {(0, 0): mpmath.jtheta(3, 0, q), (0, HALF): mpmath.jtheta(4, 0, q),
                  (HALF, 0): mpmath.jtheta(2, 0, q), (HALF, HALF): mpmath.mpc(0)}
            assert abs(exact - jt[(a, b)]) < mpmath.mpf(10) ** -30


def test_riemann_matches_mpmath_genus_2():
    omega = [[0.2 + 1.1j, 0.3 + 0.25j], [0.3 + 0.25j, -0.1 + 0.9j]]
    a, b = [HALF, Fraction(1, 3)], [Fraction(1, 4), 0]
    val = riemann_theta_z0(a, b, omega)
    want, _ = _mp_riemann(a, b, omega)
    assert abs(val.value - want) <= val.tail_bound + 1e-14
    assert val.lattice_points_used > 0


def _mp_element(x, field):
    """A KElement at 40 digits, from its exact coordinates."""
    delta = mpmath.sqrt(-field.d)
    if field.one_mod_four:
        delta = (1 + delta) / 2
    return (x.n + x.m * delta) / mpmath.mpf(x.den)


def _mp_theta_1x1(field, w, p, a0, b0, n_max=10):
    """Theta^p[a0; b0](w) at g = h = 1 as a direct sum over N = u + v delta,
    |u|, |v| <= n_max, at 40 digits; the terms left out are below 1e-100 for
    Im(w) p >= 1.5."""
    with mpmath.workdps(40):
        w = mpmath.mpc(complex(w))
        p = mpmath.mpf(p.numerator) / p.denominator
        delta, a0, b0 = (_mp_element(x, field) for x in (field.delta(), a0, b0))
        total = mpmath.mpc(0)
        for u, v in itertools.product(range(-n_max, n_max + 1), repeat=2):
            x = u + v * delta + a0
            total += mpmath.exp(1j * mpmath.pi * abs(x) ** 2 * w * p
                                + 2j * mpmath.pi * mpmath.re(mpmath.conj(x) * b0))
        return complex(total)


@pytest.mark.parametrize("d,b0,den,modulus", [
    (2, (3, -2), 1, 1),  # B0 integral and t = (3, -4): no phase but e(q0)
    (7, (1, 2), 1031, 2062),  # above the table of roots of unity
    # about 1 + delta with M near 2^63: z.k passes 2^63 already at z =
    # (1, 1), where an int64 that wraps mod 2^64 is off by about 0.05 M
    (1, (9 * 10**18 - 1, 9 * 10**18 - 2), 9 * 10**18 + 1, 9 * 10**18 + 1),
], ids=["integral", "above-the-table", "above-2^40"])
def test_exact_linear_phase_matches_mpmath(d, b0, den, modulus):
    field = FieldId(d)
    a0 = field.element(Fraction(1, 3), Fraction(1, 5))
    b0 = field.element(Fraction(b0[0], den), Fraction(b0[1], den))
    p = Fraction(3, 2)
    w = 0.2 + 1.1j
    P, A0, B0 = KMatrix([[field.from_rational(p)]]), KMatrix([[a0]]), KMatrix([[b0]])
    (leaf,) = thetas._lower(field, P, A0, B0, ThetaParams())
    leaf_modulus, leaf_k, _ = leaf_phase(leaf)
    assert leaf_modulus == modulus
    if modulus > 1:
        assert modulus > thetas._ROOTS_MAX
    val = theta_general(field, [[w]], P, A0, B0)
    if den > 2**40:
        assert sum(leaf_k) >= 2**63 and val.lattice_points_used > 9
    want = _mp_theta_1x1(field, w, p, a0, b0)
    assert abs(val.value - want) <= val.tail_bound + 1e-13


def test_phase_of_is_memoized_bit_for_bit():
    # _phase_of reads a bounded memo of (n mod den, den): bit for bit the
    # numpy scalar exp of the reduced fraction, for negative n, den up to
    # 2^60 and beyond, and on a repeated call
    rng = np.random.default_rng(11)
    dens = [1, 2, 3, 7, 12, 1031, 2**31 - 1, 2**53 + 1, 2**60, 2**60 + 33, 3**40]
    cases = [(n, den) for den in dens
             for n in (0, 1, -1, den - 1, -den - 1, 5 * den + 3, -7 * den + 2, -(2**70) + 5)]
    cases += [(int(rng.integers(-2**62, 2**62)) * int(rng.integers(1, 2**8)),
               int(rng.integers(1, 2**60))) for _ in range(6000)]
    cases += [(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 400))) for _ in range(3000)]
    thetas._residue_phase.cache_clear()
    for n, den in cases:
        want = complex(np.exp(-2j * np.pi * (n % den / den)))
        for got in (thetas._phase_of(n, den), thetas._phase_of(n, den)):
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    info = thetas._residue_phase.cache_info()
    assert info.hits >= len(cases)  # each repeated call at least
    assert info.maxsize is not None and info.currsize == info.maxsize < len(cases)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11, 15])
def test_leaf_shift_is_the_phase_of_q0_bit_for_bit(d):
    # e(q0) from the integers of A0 and B0 is the Fraction form's
    # _phase(-Re Tr(A0^H B0)), over O_K and over Z, for any size of B0
    field = FieldId(d)
    rng = np.random.default_rng(d)
    params = ThetaParams()

    def frac(top=40):
        return Fraction(int(rng.integers(-top, top + 1)), int(rng.integers(1, 30)))

    cases = []
    for g, h in ((1, 1), (1, 2), (2, 2), (2, 3)):
        for _ in range(20):
            A0, B0 = (KMatrix([[field.element(frac(), frac()) for _ in range(h)]
                               for _ in range(g)]) for _ in range(2))
            cases.append((KMatrix.identity(h, field), reduce_mod_integral(A0), B0))
    big = KMatrix([[field.element(Fraction(10**400 + 1, 7), Fraction(-(10**400), 9))]])
    cases.append((KMatrix.identity(1, field), cases[0][1], big))
    leaves = [(thetas._Family(field, P, *(thetas._int_key(*_int_coords(M)) for M in (P, A0)),
                              params, bs=(thetas._int_key(*_int_coords(B0)),)), A0, B0)
              for P, A0, B0 in cases]
    for g in (1, 2):
        a, b = ([frac() for _ in range(g)] for _ in range(2))
        A0, B0, P, lattice = thetas._z_factor(a, b, 2)
        (leaf,) = thetas._lower(thetas._RATIONALS, P, A0, B0, params, lattice)
        leaves.append((leaf, reduce_mod_integral(A0), B0))
    for leaf, A0, B0 in leaves:
        assert leaf_phase(leaf)[2] == thetas._phase(-re_trace_of_product(A0, B0))


def _reference_leaf_data(field, A0, B0, nb):
    """The floats and the phase of a leaf from the Fractions of each entry:
    A0 reduced mod the lattice entry by entry, t_i = Re(conj(e_i) y) for
    e = 1 (and delta when nb = 2), M the lcm of their denominators."""
    dc = field.delta_complex if nb == 2 else 0.0
    half = Fraction(1, 2)
    red = [[(x.a - math.floor(x.a + half), x.b - math.floor(x.b + half)) for x in row]
           for row in A0.entry_rows()]
    offsets = np.array([[float(a) + float(b) * dc for a, b in row] for row in red],
                       dtype=np.complex128)
    coords = np.array([float(v) for row in red for ab in row for v in ab[:nb]])
    tr, nd = Fraction(field.delta_trace), Fraction(field.delta_norm)
    ts = [t for row in B0.entry_rows() for y in row
          for t in (y.a + y.b * tr / 2, y.a * tr / 2 + y.b * nd)[:nb]]
    modulus = math.lcm(*(t.denominator for t in ts))
    k = tuple(int(t * modulus) % modulus for t in reversed(ts))
    A0_red = KMatrix([[field.element(a, b) for a, b in row] for row in red])
    return offsets, coords, (modulus, k, thetas._phase(-re_trace_of_product(A0_red, B0)))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11, 15])
def test_integer_leaf_matches_kmatrix_lowering(d):
    # a leaf built from integer coordinates over an unreduced common
    # denominator is the leaf that _lower builds from the KMatrix factor,
    # A0 shifted by an integral matrix in both: one key, so the two intern
    # to one leaf, and bit for bit the floats and the phase (M, k, e(q0))
    # that the Fractions of the entries give; over O_K and over Z
    field = FieldId(d)
    rng = np.random.default_rng(100 + d)
    params = ThetaParams(eps=1e-9)

    def frac():
        return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))

    def unreduced(M):  # M's coordinates over a multiple of their least denominator
        nums, den = _int_coords(M)
        k = int(rng.integers(2, 6))
        return [v * k for v in nums], den * k

    cases = []  # (field, P, A0, B0, N, lattice)
    for g, h in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3)):
        # a dense Hermitian P (one leaf per factor)
        off = field.element(Fraction(1, 2), Fraction(1, 3))
        P = KMatrix([[field.from_rational(h + 1) if i == j else (off if i < j else off.conj())
                      for j in range(h)] for i in range(h)])
        for _ in range(4):
            A0, B0 = (KMatrix([[field.element(frac(), frac()) for _ in range(h)]
                               for _ in range(g)]) for _ in range(2))
            N = KMatrix([[field.element(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                          for _ in range(h)] for _ in range(g)])
            cases.append((field, P, A0, B0, N, "O_K"))
    for g in (1, 2):
        for _ in range(4):
            A0, B0, P, lattice = thetas._z_factor([frac() for _ in range(g)],
                                                  [frac() for _ in range(g)], frac() ** 2 + 1)
            N = KMatrix([[thetas._RATIONALS.from_rational(int(rng.integers(-3, 4)))]
                         for _ in range(g)])
            cases.append((thetas._RATIONALS, P, A0, B0, N, lattice))
    for fld, P, A0, B0, N, lattice in cases:
        basis = thetas._BASES[lattice]
        (lowered,) = thetas._lower(fld, P, A0 + N, B0, params, lattice)
        leaf = thetas._Family(fld, P, thetas._int_key(*_int_coords(P)),
                              thetas._int_key(*unreduced(A0 + N), center=True), params,
                              basis, (thetas._int_key(*unreduced(B0)),))
        assert leaf.key == lowered.key and len({leaf.key, lowered.key}) == 1
        offsets, coords, phase = _reference_leaf_data(fld, A0, B0, len(leaf.basis))
        for got in (leaf, lowered):
            assert got.floats.offsets.tobytes() == offsets.tobytes()
            assert got.floats.coords.tobytes() == coords.tobytes()
            assert leaf_phase(got) == phase
        assert leaf.floats.offset_norm == lowered.floats.offset_norm


def _reference_phase_sum(quad, z, modulus, k):
    """sum quad e((z.k mod M) / M), residues in Python integers and each
    root exp(2 pi i (r / M)) on its own."""
    q = [sum(a * b for a, b in zip(row, k)) % modulus / modulus
         for row in z.astype(np.int64).tolist()]
    return (quad * np.exp(2j * np.pi * np.array(q))).sum()


def _one_sum(modulus, k):
    """The phases of a family with one phase sum (M, k), k as a float row
    where 1 < M < 2^53, as thetas._FamilyPhases builds them."""
    ks = np.array(k, dtype=np.float64) if 1 < modulus < 2**53 else None
    return thetas._FamilyPhases(((modulus, k, ks),), ((0, 1),))


# M + zmax sum(k) is just below 2^53 at zmax = _BELOW and just above it at
# _BELOW + 1, where every z.k is still a float but, for z = -zmax (1, 1, 1),
# M floor(z.k / M) is odd and above 2^53: not a float
_EDGE_M, _EDGE_K = 1027, (900, 55, 1)
_BELOW = (2**53 - 1 - _EDGE_M) // sum(_EDGE_K)


@pytest.mark.parametrize("modulus,k,zmax,built", [
    (1, (0, 0, 0), 40, False),
    (7, (3, 0, 6), 40, False),  # the cached table
    (1031, (1030, 17, 512), 40, True),  # _ROOTS_MAX < M <= rows
    (2003, (2002, 1, 1000), 40, False),  # M > rows: per point
    (_EDGE_M, _EDGE_K, _BELOW, True),  # the float path, at its edge
    (_EDGE_M, _EDGE_K, _BELOW + 1, False),  # the Python-integer path
], ids=["M=1", "cached-table", "built-table", "per-point", "float-edge", "int-edge"])
def test_phase_sum_residue_paths_bit_for_bit(monkeypatch, modulus, k, zmax, built):
    rows = 2000
    assert thetas._ROOTS_MAX < _EDGE_M < 1031 <= rows < 2003
    float_path = modulus + zmax * sum(k) < 2**53  # in integers
    assert float_path == (zmax != _BELOW + 1)
    if not float_path:
        mq = modulus * -(-zmax * sum(k) // modulus)
        assert zmax * sum(k) < 2**53 < mq and float(mq) != mq
    rng = np.random.default_rng(modulus + zmax)
    z = rng.integers(-zmax, zmax + 1, size=(rows, 3))
    z[:4] = [[zmax] * 3, [-zmax] * 3, [zmax, -zmax, zmax], [0, 0, 0]]
    assert (z < 0).any()
    quad = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    tables = []
    uncached = thetas._roots.__wrapped__
    monkeypatch.setattr(thetas._roots, "__wrapped__",
                        lambda m: tables.append(m) or uncached(m))
    residues = []
    inner = thetas._residues
    monkeypatch.setattr(thetas, "_residues",
                        lambda z, ks, m: residues.append(z.dtype) or inner(z, ks, m))
    assert thetas._float_residues(modulus, float(zmax), k) == float_path
    # the kernel passes integer rows (see _ellipsoid_points); the last sum
    # of a piece multiplies into its exponents
    (got,) = thetas._piece_sums(quad.copy(), z, _one_sum(modulus, k), float(zmax))
    assert got == _reference_phase_sum(quad, z, modulus, k)
    assert tables == ([modulus] if built else [])
    # one residue pass over the piece's one sub-block, from its integer rows
    assert residues == ([z.dtype] if float_path and modulus > 1 else [])


@pytest.mark.parametrize("n", [(1 << 14) - 1, 1 << 14])
def test_phase_product_keeps_the_order_of_the_expression(n):
    # the phase sum multiplies factors * quad from _ELIDE_ROWS points on and
    # quad * factors below: the order numpy's temporary elision gave the
    # expression quad * factors, which the recorded values rest on
    assert thetas._ELIDE_ROWS == 1 << 14
    rng = np.random.default_rng([0, n])  # a draw whose sums show the order
    quad = rng.normal(size=n) + 1j * rng.normal(size=n)
    modulus, k = 1021, (3, 500)
    z = rng.integers(-99, 100, size=(n, 2)).astype(np.int8)
    r = (z.astype(np.int64) @ np.array(k)) % modulus
    roots = thetas._roots(modulus)
    swapped = np.multiply(roots[r], quad).sum()
    in_order = np.multiply(quad, roots[r]).sum()
    assert swapped != in_order  # the order shows in the sum
    # as the last sum of its piece, which multiplies into quad, and as one
    # that builds its own terms
    for into in (quad.copy(), None):
        got = thetas._phase_sum(quad if into is None else into, z, modulus, k,
                                np.array(k, dtype=np.float64), into)
        assert got == (swapped if n >= thetas._ELIDE_ROWS else in_order)


def _outcome(call):
    """call's value, or the message of the DomainError it raises."""
    try:
        return call()
    except DomainError as err:
        return str(err)


@pytest.mark.parametrize("call,want", [
    (lambda: theta_general(FieldId(1), [[complex("nan")]], [[1]], [[0]], [[0]]),
     "W must be finite"),
    (lambda: theta_general(FieldId(1), np.full((1, 1, 1), 1j), [[1]], [[0]], [[0]]),
     "W must be a matrix, got ndim=3"),
    # a 1-d W is read as one row
    (lambda: theta_general(FieldId(1), [1j], [[1]], [[0]], [[0]]),
     theta_general(FieldId(1), [[1j]], [[1]], [[0]], [[0]])),
    (lambda: theta_general(FieldId(1), [[1j]], [[1]], [[0]], [[0, 0]]),
     "B0 must have shape (1, 1), got (1, 2)"),
    (lambda: riemann_theta_z0([0, 0], [0, 0], [[1j]]), "a must have 1 entries, got 2"),
    (lambda: riemann_theta_z0([0], [0, 0], [[1j]]), "b must have 1 entries, got 2"),
    (lambda: in_type1_domain(np.full((1, 2), 1j)), (False, -math.inf)),
], ids=["W-nan", "W-3d", "W-1d", "B0-shape", "a-long", "b-long", "domain-non-square"])
def test_thetas_check_their_inputs(call, want):
    assert _outcome(call) == want


def test_w_below_the_eigenvalue_grid_is_a_domain_error():
    # lam_min(Y) = 5e-7 passes the 1e-10 membership test but snaps to 0,
    # where no tail bound exists
    field = FieldId(1)
    with pytest.raises(DomainError, match="type-I domain"):
        theta_general(field, [[5e-7j]], [[1]], [[0]], [[0]])
    with pytest.raises(DomainError, match="positive definite"):
        riemann_theta_z0([0], [0], [[5e-7j]])


def test_radius_and_tail_frozen():
    assert choose_radius(1e-12, math.pi, 2) == 4
    assert shell_tail_bound(3, math.pi, 2) == pytest.approx(
        2.94307169962852e-11, rel=1e-9
    )
    # monotone: larger radius and stronger decay both shrink the bound
    assert shell_tail_bound(4, math.pi, 2) < shell_tail_bound(3, math.pi, 2)
    assert shell_tail_bound(3, 2 * math.pi, 2) < shell_tail_bound(3, math.pi, 2)
    assert shell_tail_bound(3, math.pi, 4) > shell_tail_bound(3, math.pi, 2)


def test_choose_radius_offset_floor():
    # decay so strong that radius 1 would suffice; the offset floors it
    assert choose_radius(1e-12, 50.0, 2) == 1
    assert choose_radius(1e-12, 50.0, 2, offset_norm=3.2) == 5


def test_choose_radius_cap():
    with pytest.raises(TruncationError):
        choose_radius(1e-300, 0.05, 8, max_radius=4.0)


def _linear_radius(eps, decay, dim, offset_norm=0.0, max_radius=64.0):
    """The radius search choose_radius replaced: r = floor, floor + 1, ...
    up to max_radius; None where it raises."""
    r = max(1, int(math.ceil(offset_norm)) + 1)
    while r <= max_radius:
        if shell_tail_bound(r, decay, dim) <= eps:
            return r
        r += 1
    return None


def _searched_radius(*args, **kwargs):
    try:
        return choose_radius(*args, **kwargs)
    except TruncationError:
        return None


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_choose_radius_is_the_linear_search(dim):
    for eps in (1e-300, 1e-15, 1e-12, 1e-6, 1e-2, 4.0):
        for decay in (0.0, 1e-3, 0.05, 0.4, math.pi, 30.0):
            for offset_norm in (0.0, 0.7, 3.2):
                for max_radius in (0.5, 3.0, 64.0):
                    case = (eps, decay, dim, offset_norm, max_radius)
                    assert _searched_radius(*case) == _linear_radius(*case), case


@pytest.mark.parametrize("eps,decay,dim", [
    (20.0, 1e-4, 2), (3e3, 1e-4, 2), (6e4, 1e-4, 2), (8e4, 1e-4, 2),
    (1e6, 1e-4, 2), (5e7, 1e-5, 2), (1e3, 1e-3, 4), (1e6, 1e-3, 4),
    (1e-12, 1e-4, 2), (1e-3, 3e-4, 4),
])
def test_choose_radius_where_the_bound_first_rises(eps, decay, dim):
    # with a small decay the shell terms rise before they fall, so the
    # tail bound is not monotone in the radius; a large eps can be met
    # on the rising stretch, before the peak (radii 55 and 10 for eps 6e4
    # and 8e4, peak 70)
    case = (eps, decay, dim, 0.0, 3000.0)
    assert _searched_radius(*case) == _linear_radius(*case), case


def test_choose_radius_without_a_cap_ends():
    # the linear search never ended here: its radius is in the millions
    decay = math.pi * 2.0 ** -40
    r = choose_radius(1e-12, decay, 2, max_radius=math.inf)
    assert shell_tail_bound(r, decay, 2) <= 1e-12 < shell_tail_bound(r - 1, decay, 2)
    with pytest.raises(TruncationError, match="max_radius=inf"):
        choose_radius(1e-12, 0.0, 2, max_radius=math.inf)
    assert choose_radius(math.inf, 0.0, 2, max_radius=math.inf) == 1
    with pytest.raises(TruncationError, match="overflows"):
        choose_radius(1e-12, decay, 50, max_radius=math.inf)


def test_in_type1_domain_frozen():
    ok, lam = in_type1_domain([[1j, 0.5], [-0.5, 1j]])
    assert ok
    assert lam == pytest.approx(0.5, abs=1e-12)
    ok, lam = in_type1_domain([[-1j]])
    assert not ok


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_dense_against_direct_sum(d):
    # independent double-loop oracle for g=1, h=2 with non-diagonal P
    field = FieldId(d)
    w = 0.9 + 1.1j
    half = Fraction(1, 2)
    p01 = field.element(half, half)
    P = KMatrix(
        [
            [field.from_rational(2), p01],
            [p01.conj(), field.from_rational(2)],
        ]
    )
    A0 = KMatrix([[field.element(Fraction(1, 3)), field.element(0, Fraction(1, 4))]])
    B0 = KMatrix([[field.element(Fraction(1, 5)), field.element(Fraction(1, 7))]])
    p_emb = P.embed()
    a_emb = A0.embed().ravel()
    b_emb = B0.embed().ravel()
    cand = _brute_candidates(field, 7)
    x1 = cand[:, None] + a_emb[0]
    x2 = cand[None, :] + a_emb[1]
    quad = (
        p_emb[0, 0] * np.abs(x1) ** 2
        + p_emb[1, 1] * np.abs(x2) ** 2
        + p_emb[0, 1] * x1 * np.conj(x2)
        + p_emb[1, 0] * x2 * np.conj(x1)
    )
    lin = (np.conj(x1) * b_emb[0] + np.conj(x2) * b_emb[1]).real
    oracle = np.exp(1j * math.pi * w * quad + 2j * math.pi * lin).sum()
    val = theta_general(field, [[w]], P, A0, B0)
    assert val.value == pytest.approx(complex(oracle), abs=1e-11)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("h", [1, 2])
def test_dense_g2_against_direct_sum(d, h):
    # g=2 oracle: W has off-diagonal entries and P^T != P, so the per-point
    # exponent Tr(X^H W X P) is summed here straight from its definition
    field = FieldId(d)
    W = np.array([[0.3 + 2.0j, 0.2 - 0.1j], [0.1 + 0.15j, -0.2 + 2.1j]])
    p01 = field.element(Fraction(1, 2), Fraction(1, 2))
    if h == 2:
        P = KMatrix(
            [
                [field.from_rational(2), p01],
                [p01.conj(), field.from_rational(Fraction(5, 2))],
            ]
        )
    else:
        P = KMatrix([[field.from_rational(Fraction(3, 2))]])
    A0 = KMatrix(
        [
            [field.element(Fraction(1, 3)), field.element(0, Fraction(1, 4))][:h],
            [field.element(Fraction(-1, 5), Fraction(1, 3)), field.zero()][:h],
        ]
    )
    B0 = KMatrix(
        [
            [field.element(Fraction(1, 5), Fraction(1, 3)), field.element(Fraction(1, 7))][:h],
            [field.element(0, Fraction(-1, 2)), field.element(Fraction(2, 3), Fraction(1, 5))][:h],
        ]
    )
    p_emb = P.embed()
    b_emb = B0.embed()
    cand = _brute_candidates(field, 2)
    grids = np.meshgrid(*([cand] * (2 * h)), indexing="ij")
    X = np.stack([gr.ravel() for gr in grids], axis=1).reshape(-1, 2, h)
    X = X + A0.embed()
    quad = np.einsum("nki,kl,nlj,ji->n", X.conj(), W, X, p_emb)
    lin = np.einsum("nij,ij->n", X.conj(), b_emb).real
    oracle = np.exp(1j * math.pi * quad + 2j * math.pi * lin).sum()
    val = theta_general(field, W, P, A0, B0)
    assert val.value == pytest.approx(complex(oracle), abs=1e-11)


@pytest.mark.parametrize("d", [1, 3])
def test_diagonal_factorization_against_direct_sum(d):
    field = FieldId(d)
    w = 1.2j
    P = KMatrix(
        [
            [field.from_rational(2), field.zero()],
            [field.zero(), field.from_rational(3)],
        ]
    )
    A0 = KMatrix([[field.element(Fraction(1, 2)), field.element(0, Fraction(1, 3))]])
    B0 = KMatrix([[field.element(Fraction(1, 4)), field.element(Fraction(1, 6))]])
    a_emb = A0.embed().ravel()
    b_emb = B0.embed().ravel()
    cand = _brute_candidates(field, 7)
    oracle = complex(1.0)
    for j, pj in enumerate((2.0, 3.0)):
        x = cand + a_emb[j]
        lin = (np.conj(x) * b_emb[j]).real
        oracle *= np.exp(1j * math.pi * w * pj * np.abs(x) ** 2 + 2j * math.pi * lin).sum()
    val = theta_general(field, [[w]], P, A0, B0)
    assert val.value == pytest.approx(oracle, abs=1e-11)


@pytest.mark.parametrize("d", [1, 3, 7])
def test_unit_invariance(d):
    field = FieldId(d)
    A0 = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 2))]])
    B0 = KMatrix([[field.element(Fraction(1, 5), Fraction(1, 4))]])
    P = KMatrix([[field.from_rational(2)]])
    W = [[0.3 + 1.0j]]
    base = theta_general(field, W, P, A0, B0).value
    for u in field.units():
        tw = theta_general(field, W, P, A0.scale(u), B0.scale(u)).value
        assert tw == pytest.approx(base, abs=1e-12)


def test_integral_shift_invariance():
    field = FieldId(2)
    A0 = KMatrix([[field.element(Fraction(2, 5), Fraction(1, 3))]])
    B0 = KMatrix([[field.element(Fraction(1, 7))]])
    P = KMatrix([[field.from_rational(1)]])
    W = [[0.1 + 0.9j]]
    S = KMatrix([[field.element(3, -2)]])
    v1 = theta_general(field, W, P, A0, B0)
    v2 = theta_general(field, W, P, A0 + S, B0)
    assert v1.value == v2.value  # same reduced offsets, bit identical
    assert v1.lattice_points_used == v2.lattice_points_used


@pytest.mark.parametrize("d", [2, 3])
def test_b_shift_covariance(d):
    # shifting B0 by hat(L) with L integral multiplies the value by the
    # exact unit-modulus factor exp(2*pi*i*Re Tr(conj(A0)^t hat(L)))
    field = FieldId(d)
    A0 = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 5))]])
    B0 = KMatrix([[field.element(Fraction(1, 2), Fraction(1, 7))]])
    P = KMatrix([[field.from_rational(1)]])
    W = [[0.2 + 1.1j]]
    L = KMatrix([[field.element(1, 1)]])
    lhs = theta_general(field, W, P, A0, B0 + hat(L)).value
    q = re_trace_of_product(A0, hat(L))
    rhs = cmath.exp(2j * math.pi * float(q)) * theta_general(
        field, W, P, A0, B0
    ).value
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_truncation_bound_is_honest():
    field = FieldId(1)
    A0 = KMatrix([[field.element(Fraction(1, 3))]])
    B0 = KMatrix([[field.element(Fraction(1, 4))]])
    P = KMatrix([[field.from_rational(1)]])
    W = [[0.6j]]
    coarse = theta_general(field, W, P, A0, B0, ThetaParams(eps=1e-4))
    fine = theta_general(field, W, P, A0, B0, ThetaParams(eps=1e-14))
    assert coarse.tail_bound <= 1e-4
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound
    assert fine.lattice_points_used > coarse.lattice_points_used


@pytest.mark.parametrize("d", [1, 2])
def test_check_variant_plain_branch(d):
    # direct sum with the linear phase reading the lattice point alone
    field = FieldId(d)
    a = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 4))]])
    b = KMatrix([[field.element(Fraction(1, 5), Fraction(1, 2))]])
    w = 0.2 + 1.0j
    cand = _brute_candidates(field, 8)
    x = cand + complex(a.embed()[0, 0])
    lin = (np.conj(cand) * complex(b.embed()[0, 0])).real
    oracle = np.exp(1j * math.pi * w * np.abs(x) ** 2 + 2j * math.pi * lin).sum()
    val = theta_check_variant(field, a, b, [[w]])
    assert val.value == pytest.approx(complex(oracle), abs=1e-11)


@pytest.mark.parametrize("d", [3, 7])
def test_check_variant_split_branch(d):
    # the branch for -d = 1 mod 4 runs at 2W with a doubled linear phase
    field = FieldId(d)
    a = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 4))]])
    b = KMatrix([[field.element(Fraction(1, 5), Fraction(1, 2))]])
    w = 0.2 + 1.0j
    cand = _brute_candidates(field, 8)
    x = cand + complex(a.embed()[0, 0])
    lin = (np.conj(cand) * complex(b.embed()[0, 0])).real
    oracle = np.exp(2j * math.pi * w * np.abs(x) ** 2 + 4j * math.pi * lin).sum()
    val = theta_check_variant(field, a, b, [[w]])
    assert val.value == pytest.approx(complex(oracle), abs=1e-11)


@pytest.mark.parametrize("d", [2, 7])
def test_check_variant_b_periodic(d):
    field = FieldId(d)
    a = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 4))]])
    b = KMatrix([[field.element(Fraction(1, 5), Fraction(1, 2))]])
    W = [[0.1 + 0.9j]]
    base = theta_check_variant(field, a, b, W).value
    for nu in (field.one(), field.delta(), field.element(-2, 1)):
        shifted = theta_check_variant(
            field, a, b + KMatrix([[nu]]), W
        ).value
        assert shifted == pytest.approx(base, abs=1e-12)


def test_check_variant_a_shift_picks_up_phase():
    field = FieldId(2)
    a = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 4))]])
    b = KMatrix([[field.element(Fraction(1, 5), Fraction(1, 2))]])
    W = [[0.1 + 0.9j]]
    nu = field.element(1, -1)
    lhs = theta_check_variant(field, a + KMatrix([[nu]]), b, W).value
    q = re_trace_of_product(KMatrix([[nu]]), b)
    rhs = cmath.exp(-2j * math.pi * float(q)) * theta_check_variant(
        field, a, b, W
    ).value
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_check_variant_modulus_matches_plain_theta():
    field = FieldId(1)
    a = KMatrix([[field.element(Fraction(1, 4), Fraction(1, 3))]])
    b = KMatrix([[field.element(Fraction(1, 2), Fraction(1, 5))]])
    W = [[1.05j]]
    chk = theta_check_variant(field, a, b, W).value
    plain = theta_general(
        field, W, KMatrix([[field.one()]]), a, b
    ).value
    assert abs(chk) == pytest.approx(abs(plain), abs=1e-12)


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(2)])
@pytest.mark.parametrize("g", [1, 2])
def test_z_factor_at_scale_s_is_the_theta_at_s_omega(g, s):
    # over Z, P = [[s]] at Omega is the Riemann theta at s * Omega: the same
    # points and value bit for bit.  The decay pi snap(lam_Y) s is at most
    # pi snap(s lam_Y) for an integral s, so the tail bound is no smaller
    # there; for s = 1/2 either may be the smaller, and both are rigorous
    params = ThetaParams()
    rng = np.random.default_rng(7 * g)
    omegas = list(default_omega_samples(g))
    for _ in range(6):
        m = rng.normal(size=(g, g))
        x = rng.normal(size=(g, g))
        omegas.append(x + x.T + 1j * (m @ m.T + 0.3 * np.eye(g)))
    chars = [tuple(Fraction(int(v), 6) for v in rng.integers(-5, 6, size=g)) for _ in range(3)]
    for omega in omegas:
        at = thetas._at(np.asarray(omega))
        for a, b in itertools.product(chars, repeat=2):
            A0, B0, P, lattice = thetas._z_factor(a, b, s)
            (leaf,) = thetas._lower(thetas._RATIONALS, P, A0, B0, params, lattice)
            got = thetas._theta_dense(leaf, at.w, at.lam_y)
            want = riemann_theta_z0(a, b, omega * float(s), params)
            assert (got.value, got.lattice_points_used) == (want.value, want.lattice_points_used)
            if s.denominator == 1:
                assert got.tail_bound >= want.tail_bound


def test_domain_errors():
    field = FieldId(1)
    one = KMatrix([[field.one()]])
    zero = KMatrix.zeros(1, 1, field)
    with pytest.raises(DomainError, match="type-I domain"):
        theta_general(field, [[-1j]], one, zero, zero)
    with pytest.raises(DomainError, match="positive definite"):
        theta_general(field, [[1j]], KMatrix([[field.from_rational(-1)]]), zero, zero)
    bad_p = KMatrix(
        [[field.one(), field.delta()], [field.zero(), field.one()]]
    )
    z12 = KMatrix.zeros(1, 2, field)
    with pytest.raises(DomainError, match="Hermitian"):
        theta_general(field, [[1j]], bad_p, z12, z12)
    with pytest.raises(DomainError, match="symmetric"):
        riemann_theta_z0([0.0, 0.0], [0.0, 0.0], [[1j, 0.5], [0.0, 1j]])
    # an asymmetry of at most 1e-12 passes as rounding
    riemann_theta_z0([0.0, 0.0], [0.0, 0.0], [[1j, 0.5], [0.5 + 1e-13, 1j]])
    with pytest.raises(DomainError, match="symmetric"):
        riemann_theta_z0([0.0, 0.0], [0.0, 0.0], [[1j, 0.5], [0.5 + 1e-11, 1j]])
    with pytest.raises(DomainError, match="positive definite"):
        riemann_theta_z0([0.0], [0.0], [[0.5 - 1j]])
    # a Riemann factor read through a plan checks symmetry as well
    (check,) = make_preset("riemann_quad", g=2).identity_checks
    with pytest.raises(DomainError, match="symmetric"):
        check.evaluate(np.array([[1j, 0.5], [0.0, 1j]]))


def test_truncation_error_at_radius_cap():
    field = FieldId(1)
    one = KMatrix([[field.one()]])
    zero = KMatrix.zeros(1, 1, field)
    with pytest.raises(TruncationError, match="max_radius"):
        theta_general(
            field, [[1j]], one, zero, zero, ThetaParams(eps=1e-30, max_radius=4.0)
        )


def test_cache_hits_are_counted():
    field = FieldId(1)
    one = KMatrix([[field.one()]])
    zero = KMatrix.zeros(1, 1, field)
    cache = ThetaCache()
    v1 = theta_general(field, [[1j]], one, zero, zero, None, cache)
    v2 = theta_general(field, [[1j]], one, zero, zero, None, cache)
    assert cache.misses == 1
    assert cache.hits == 1
    assert v1.value == v2.value


@pytest.mark.parametrize("d", [1, 3])
def test_nested_rationals_match_kmatrix(d):
    # nested int/Fraction rows are read as exact matrices over the field
    field = FieldId(d)
    W = [[0.2 + 1.1j]]
    P = [[2, Fraction(1, 2)], [Fraction(1, 2), 3]]
    A0 = [[Fraction(4, 3), Fraction(-1, 4)]]
    B0 = [[Fraction(1, 2), 0]]
    nested = theta_general(field, W, P, A0, B0)
    exact = theta_general(
        field,
        W,
        KMatrix.from_rational_rows(P, field),
        KMatrix.from_rational_rows(A0, field),
        KMatrix.from_rational_rows(B0, field),
    )
    assert nested == exact
    a, b = [[Fraction(1, 3)]], [[Fraction(1, 5)]]
    assert theta_check_variant(field, a, b, W) == theta_check_variant(
        field,
        KMatrix.from_rational_rows(a, field),
        KMatrix.from_rational_rows(b, field),
        W,
    )


@pytest.mark.parametrize(
    "arg,value",
    [
        ("P", np.eye(1)),
        ("P", [[2.0]]),
        ("A0", [[0.5j]]),
        ("A0", np.zeros((1, 1))),
        ("B0", [[True]]),
        ("B0", 0),
    ],
)
def test_inexact_characteristics_rejected(arg, value):
    field = FieldId(1)
    args = {
        "P": KMatrix([[field.one()]]),
        "A0": KMatrix.zeros(1, 1, field),
        "B0": KMatrix.zeros(1, 1, field),
    }
    args[arg] = value
    with pytest.raises(TypeError, match=arg):
        theta_general(field, [[1j]], args["P"], args["A0"], args["B0"])


def test_check_variant_rejects_numpy():
    field = FieldId(1)
    with pytest.raises(TypeError, match="a must be"):
        theta_check_variant(field, np.zeros((1, 1)), [[0]], [[1j]])


@pytest.mark.parametrize("d", [2, 3])
def test_integral_shift_shares_cache_entry(d):
    # A0 is reduced mod O_K before the cache key is built
    field = FieldId(d)
    P = KMatrix([[field.from_rational(2), field.element(Fraction(1, 2))],
                 [field.element(Fraction(1, 2)), field.from_rational(3)]])
    A0 = KMatrix([[field.element(Fraction(2, 5), Fraction(1, 3)),
                   field.element(Fraction(-1, 2), Fraction(1, 2))]])
    S = KMatrix([[field.element(3, -2), field.element(-1, 4)]])
    B0 = KMatrix([[field.element(Fraction(1, 7)), field.element(0, Fraction(1, 3))]])
    W = [[0.1 + 0.9j]]
    cache = ThetaCache()
    v1 = theta_general(field, W, P, A0, B0, None, cache)
    v2 = theta_general(field, W, P, A0 + S, B0, None, cache)
    assert (cache.misses, cache.hits) == (1, 1)
    assert v1 == v2
    assert theta_general(field, W, P, A0 + S, B0) == v1


# -- the part keys of base + rep ------------------------------------------------


def test_part_keys_table_is_in_first_read_order():
    # g = 1, h = 2, one column a part: the parts of each rep index one
    # table, numbered as they are first read
    reps = [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 2, 0)]
    parts, table = thetas._part_keys([0] * 4, 1, reps, 3, 1, 2, 1, False)
    assert parts == [[0, 1], [1, 0], [0, 0], [1, 2]]
    assert table == [((1, 0), 3), ((0, 0), 1), ((2, 0), 3)]


def test_part_keys_center_each_coordinate():
    # centered, every coordinate of every key lies in [-1/2, 1/2) and is
    # the uncentered one moved by an integer
    reps = list(itertools.product(range(-7, 8, 3), repeat=4))
    base = [5, -3, 1, 7]
    parts, table = thetas._part_keys(base, 4, reps, 6, 1, 2, 2, True)
    plain, raw = thetas._part_keys(base, 4, reps, 6, 1, 2, 2, False)
    for (i,), (k,) in zip(parts, plain):
        (nums, den), (raw_nums, raw_den) = table[i], raw[k]
        for v, r in zip(nums, raw_nums):
            x = Fraction(v, den)
            assert -Fraction(1, 2) <= x < Fraction(1, 2)
            assert (Fraction(r, raw_den) - x).denominator == 1


def test_part_keys_cut_parts_of_w_columns():
    # g = 2, h = 4, w = 2: part j holds columns 2j and 2j + 1 of both rows
    rep = list(range(16))
    (parts,), table = thetas._part_keys([0] * 16, 1, [rep], 5, 2, 4, 2, False)
    assert [table[i] for i in parts] == [
        thetas._int_key([0, 1, 2, 3, 8, 9, 10, 11], 5),
        thetas._int_key([4, 5, 6, 7, 12, 13, 14, 15], 5)]


@pytest.mark.parametrize("base,base_den,rep,rep_den,center,want", [
    ((1, 0), 2, (1, 0), 2, True, ((0, 0), 1)),
    ((1, 0), 2, (1, 0), 2, False, ((1, 0), 1)),
    ((1, 0), 2, (1, 0), 3, True, ((-1, 0), 6)),
    ((1, 1), 2, (0, 3), 4, True, ((-2, 1), 4)),
], ids=["halves-centered", "halves", "lcm-6", "lcm-4"])
def test_part_keys_over_the_lcm_of_the_denominators(base, base_den, rep, rep_den, center, want):
    # base / base_den + rep / rep_den, reduced over the least common
    # denominator: 1/2 + 1/2 centered is 0, uncentered 1, and 1/2 + 0
    # centered is -1/2
    (_, table) = thetas._part_keys(base, base_den, [rep], rep_den, 1, 1, 1, center)
    assert table == [want]
