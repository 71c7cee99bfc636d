"""Construction and sphere evaluation of the iteration maps."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from halleydyn import polycore, ratmap
from halleydyn.acceptance import CORPUS_SEED, random_corpus
from halleydyn.classify import classify_fixed_points
from halleydyn.errors import DegenerateMap, Indeterminate, NonConvergence, NotFixed
from halleydyn.polycore import ONE, AffineMap, Polynomial, compose_affine, find_roots
from halleydyn.ratmap import (
    INF,
    RationalMap,
    chebyshev_halley_of,
    conjugate,
    degree_census,
    eval_sphere,
    fixed_points,
    free_critical_points,
    halley_of,
    is_infinity,
    konig_of,
    local_degree_at,
    make_reduced,
    multiplier_at,
    poles,
    same_map,
)

CUBIC_ODD = Polynomial.make([0, -1, 0, 1])       # z(z^2-1)
QUARTIC = Polynomial.make([0, -1, 0, 0, 1])      # z(z^3-1)


def normalized(c):
    a = np.array(c, dtype=complex)
    return a / a[-1]


def test_halley_quadratic_closed_form():
    h = halley_of(Polynomial.make([-1, 0, 1]))
    # z(z^2+3) / (3z^2+1)
    assert np.allclose(normalized(h.num.coeffs), normalized([0, 3, 0, 1]))
    assert np.allclose(normalized(h.den.coeffs), normalized([1, 0, 3]))
    assert abs(h(2.0) - 14.0 / 13.0) < 1e-14


def test_halley_degenerate_single_root():
    with pytest.raises(DegenerateMap):
        halley_of(Polynomial.make([-1, 3, -3, 1]))  # (z-1)^3


def test_konig_n3_equals_halley():
    for p in (CUBIC_ODD, Polynomial.make([2, 0, 1, 1])):
        h = halley_of(p)
        k = konig_of(p, 3)
        assert np.allclose(normalized(k.num.coeffs), normalized(h.num.coeffs))
        assert np.allclose(normalized(k.den.coeffs), normalized(h.den.coeffs))


def test_konig_n2_is_newton():
    # Newton for z^2-1 is (z^2+1)/(2z)
    k = konig_of(Polynomial.make([-1, 0, 1]), 2)
    assert np.allclose(normalized(k.num.coeffs), normalized([1, 0, 1]))
    assert np.allclose(normalized(k.den.coeffs), normalized([0, 2]))


def test_chebyshev_sigma_zero_value():
    g = chebyshev_halley_of(Polynomial.make([-1, 0, 1]), 0.0)
    assert abs(g(2.0) - 71.0 / 64.0) < 1e-12


def test_chebyshev_half_equals_halley_pointwise():
    rng = np.random.default_rng(2)
    for p in (CUBIC_ODD, QUARTIC):
        h = halley_of(p)
        g = chebyshev_halley_of(p, 0.5)
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            hv = eval_sphere(h, z)
            gv = eval_sphere(g, z)
            if is_infinity(hv) or is_infinity(gv) or abs(hv) > 1e4:
                continue
            assert abs(gv - hv) <= 1e-9 * max(1.0, abs(hv))


def test_degree_census_matches_construction():
    rng = np.random.default_rng(23)
    for _ in range(20):
        roots = []
        for _ in range(60):
            cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(cand - r) > 0.7 for r in roots):
                roots.append(cand)
            if len(roots) == 3:
                break
        mults = [int(rng.integers(1, 3)) for _ in roots]
        if len(roots) < 2 or sum(mults) < 2:
            continue
        p = Polynomial.from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
        census = degree_census(p)
        assert halley_of(p).degree == census.predicted_degree


def test_fixed_point_set_identity():
    # roots, non-root critical points, and INF; nothing else
    p = CUBIC_ODD
    h = halley_of(p)
    expected = [-1, 0, 1, 1 / math.sqrt(3), -1 / math.sqrt(3)]
    got = fixed_points(h)
    finite = [z for z in got if not is_infinity(z)]
    assert any(is_infinity(z) for z in got)
    assert len(finite) == len(expected)
    for e in expected:
        assert min(abs(z - e) for z in finite) < 1e-9


def test_is_fixed_point_takes_arrays_as_eval_sphere_does():
    # elementwise, each entry as the scalar call decides it
    h = halley_of(CUBIC_ODD)
    z = np.array(list(h.fixed) + [0.5, 2 + 1j, 1 + 1e-5, 1 + 1e-7], dtype=np.complex128)
    got = ratmap.is_fixed_point(h, z)
    assert got.tolist() == [bool(ratmap.is_fixed_point(h, w)) for w in z.tolist()]
    assert got.tolist() == [True] * len(h.fixed) + [False, False, False, True]


def test_critical_points_of_an_overflowing_map_are_a_degenerate_map():
    # sigma = 1e300: the derivative numerator's products overflow, and
    # trimming the infinite coefficients leaves the zero polynomial
    R = chebyshev_halley_of(Polynomial.make([-1, 0, 1]), 1e300)
    for points in (ratmap.critical_points, lambda R: free_critical_points(R, [])):
        with pytest.raises(DegenerateMap, match="derivative numerator"):
            points(R)


def test_multiplier_predictions():
    # multiple root k: (k-1)/(k+1); non-root critical of multiplicity l:
    # 1 + 2/l; infinity: (d+1)/(d-1) for d = deg p
    p = Polynomial.make([0, 1, -2, 1])  # z(z-1)^2
    h = halley_of(p)
    assert abs(multiplier_at(h, 0.0)) < 1e-12
    assert abs(multiplier_at(h, 1.0) - 1.0 / 3.0) < 1e-9
    assert abs(multiplier_at(h, 1.0 / 3.0) - 3.0) < 1e-9
    assert abs(multiplier_at(h, INF) - 2.0) < 1e-6


def test_multiplier_survives_an_underflowing_den_square():
    # z^3 - 1 scaled by 1e-100: den(0) is about 1e-180, so den(0)**2
    # underflows to 0, yet the multiplier at the double critical point 0
    # is 1 + 2/2 as for z^3 - 1
    h = halley_of(Polynomial.make([-1e-100, 0, 0, 1e-100]))
    assert h.den(0j) * h.den(0j) == 0
    assert abs(multiplier_at(h, 0j) - 2.0) < 1e-9


def test_multiplier_rejects_non_fixed():
    h = halley_of(Polynomial.make([-1, 0, 1]))
    with pytest.raises(NotFixed):
        multiplier_at(h, 0.5)


def test_extraneous_weighted_mean_two_roots():
    # roots a (mult k) and b (mult m) give one extraneous fixed point at
    # (a*m + b*k) / (k + m)
    a, b, k, m = 2.0, -1.0, 3, 2
    p = Polynomial.from_roots([a] * k + [b] * m)
    h = halley_of(p)
    target = (a * m + b * k) / (k + m)
    finite = [z for z in fixed_points(h) if not is_infinity(z)]
    extr = [z for z in finite if min(abs(z - a), abs(z - b)) > 1e-6]
    assert len(extr) == 1
    assert abs(extr[0] - target) < 1e-9


def test_multiplier_at_infinity_is_exact():
    # den.lead / num.lead = (d+1)/(d-1) to the last bit, where a
    # difference quotient near w = 0 is off in the twelfth digit
    h = halley_of(Polynomial.make([62.5144395981942, 6, 0, 1]))
    assert abs(multiplier_at(h, INF) - 2.0) <= 1e-15
    for p in random_corpus(50, seed=CORPUS_SEED):
        d = p.degree
        assert abs(multiplier_at(halley_of(p), INF) - (d + 1) / (d - 1)) <= 1e-15
    assert multiplier_at(RationalMap(Polynomial.make([0, 0, 0, 1]), ONE), INF) == 0


def test_local_degrees_on_sphere():
    h = halley_of(CUBIC_ODD)
    assert local_degree_at(h, 0.0) == 3
    assert local_degree_at(h, 1.0) == 3
    assert local_degree_at(h, 1 / math.sqrt(3)) == 1
    assert local_degree_at(h, INF) == 1
    assert local_degree_at(RationalMap(Polynomial.make([0, 0, 0, 1]), ONE), INF) == 3
    for bare in (RationalMap(ONE, Polynomial.make([0, 1])),
                 RationalMap(Polynomial.make([1, 2]), Polynomial.make([3, 1]))):
        with pytest.raises(NotFixed):
            local_degree_at(bare, INF)
        with pytest.raises(NotFixed):
            multiplier_at(bare, INF)


def test_local_degree_is_one_at_a_repelling_fixed_point():
    # pool entry 29 of the benchmark corpus: the derivative numerator is
    # small against its envelope at this critical-origin fixed point, yet
    # the multiplier is 3
    p = Polynomial.from_roots([1.308 + 0.372j] + [0.614 - 0.161j] * 3
                              + [-1.15 - 1.434j] * 2 + [1.193 + 1.116j, 0.438 + 0.863j])
    h = halley_of(p)
    z = min((z for z in fixed_points(h) if not is_infinity(z)),
            key=lambda z: abs(z - (1.1002 + 0.9403j)))
    assert abs(multiplier_at(h, z) - 3.0) < 1e-6
    assert local_degree_at(h, z) == 1


def test_real_coefficients_commute_with_conjugation():
    rng = np.random.default_rng(31)
    p = Polynomial.make([3, -1, 0, 2, 1])
    h = halley_of(p)
    for _ in range(30):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = eval_sphere(h, z.conjugate())
        b = eval_sphere(h, z)
        if is_infinity(a) or is_infinity(b):
            continue
        assert abs(a - b.conjugate()) <= 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("n", [3, 7])
def test_rotation_equivariance(n):
    p = Polynomial.make([0, -1] + [0] * (n - 1) + [1])  # z(z^n - 1)
    h = halley_of(p)
    lam = complex(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n))
    rng = np.random.default_rng(n)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = eval_sphere(h, lam * z)
        b = eval_sphere(h, z)
        if is_infinity(a) or is_infinity(b):
            continue
        assert abs(a - lam * b) <= 1e-9 * max(1.0, abs(b))


def test_conjugate_rotation_fixes_symmetric_map():
    n = 3
    p = Polynomial.make([0, -1] + [0] * (n - 1) + [1])
    h = halley_of(p)
    lam = complex(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n))
    g = conjugate(h, AffineMap(lam))
    assert np.allclose(normalized(g.num.coeffs), normalized(h.num.coeffs))
    assert np.allclose(normalized(g.den.coeffs), normalized(h.den.coeffs))


def test_scaling_covariance():
    # affine covariance: halley_of(c * p(T z)) is T^-1 o halley_of(p) o T
    cases = [(Polynomial.make([-1, 0, 1]), AffineMap(2.0), 0.25),
             (CUBIC_ODD, AffineMap(1j, 0.5), 2.0 - 1j)]
    corpus = random_corpus(50, seed=CORPUS_SEED)
    cases += [(q, T, c)
              for T, c in ((AffineMap(2.0), 1.0), (AffineMap(1j, 0.5), 2.0 - 1j),
                           (AffineMap(-1.3 + 0.4j, 0.2 - 0.7j), 0.5),
                           (AffineMap(1 / 0.3), 1.0))
              for q in corpus]
    for q, T, c in cases:
        assert same_map(halley_of(compose_affine(q, T).scale(c)), conjugate(halley_of(q), T))


def test_conjugate_is_affine_change_of_variable():
    T = AffineMap(-1.3 + 0.4j, 0.2 - 0.7j)
    h = halley_of(CUBIC_ODD)
    g = conjugate(h, T)
    for z in (0.3 + 0.2j, -1.1 + 0.9j, 2.0 - 0.5j):
        assert abs(g(z) - T.inverse()(h(T(z)))) <= 1e-12 * max(1.0, abs(g(z)))
    assert same_map(conjugate(g, T.inverse()), h)
    assert not same_map(g, h)


def test_reduction_keeps_a_tiny_constant_coefficient():
    # den's constant is about 1e-13 of its largest coefficient, but the
    # origin is no pole: no power of z may be shifted out
    p = Polynomial.from_roots([0.01] * 3 + [0.3] * 2 + [-0.3] * 2)
    h = halley_of(p)
    assert h.degree == degree_census(p).predicted_degree == 5
    classify_fixed_points(p, h)
    p1 = Polynomial.from_roots([1 / 30] * 3 + [1.0] * 2 + [-1.0] * 2)
    T = AffineMap(1 / 0.3)
    assert same_map(halley_of(compose_affine(p1, T)), conjugate(halley_of(p1), T))


def test_konig_overflow_is_a_degenerate_map():
    with pytest.raises(DegenerateMap, match="overflow"):
        konig_of(CUBIC_ODD, 140)


def test_konig_lost_leading_coefficients_are_a_degenerate_map():
    # q_{n-1} has degree (n-1)(d-1) and num one more; at n = 49 the sum
    # that forms num spans so many decades that its top coefficients trim
    R = konig_of(CUBIC_ODD, 48)
    assert (R.num.degree, R.den.degree) == (95, 94)
    with pytest.raises(DegenerateMap, match="overflow"):
        konig_of(CUBIC_ODD, 49)


def test_eval_sphere_at_infinity_and_pole():
    h = halley_of(Polynomial.make([-1, 0, 1]))
    assert is_infinity(eval_sphere(h, INF))  # deg num > deg den
    # den 3z^2+1 vanishes at +- i/sqrt(3); numerator does not
    pole = 1j / math.sqrt(3.0)
    assert is_infinity(eval_sphere(h, pole))


def test_eval_sphere_huge_argument():
    h = halley_of(Polynomial.make([-1, 0, 1]))
    z = 1e200
    v = eval_sphere(h, z)
    # H(z) ~ z/3 at large |z| for the quadratic map
    assert not is_infinity(v)
    assert abs(v / z - 1.0 / 3.0) < 1e-6


def test_eval_sphere_unreduced_raises():
    shared = Polynomial.make([-1, 1])  # z - 1
    r = RationalMap(Polynomial.make([0, 1]) * shared, shared)
    with pytest.raises(Indeterminate):
        eval_sphere(r, 1.0)


def test_make_reduced_cancels_shared_factor():
    num = Polynomial.make([0, 1]) * Polynomial.make([-1, 1])
    den = Polynomial.make([-1, 1]) * Polynomial.make([2, 1])
    r = make_reduced(num, den, [(1.0, 1)])
    assert r.num.degree == 1 and r.den.degree == 1
    assert abs(r(0.0)) < 1e-14
    assert abs(r(1.0) - 1.0 / 3.0) < 1e-12


def test_poles_of_octic():
    p = Polynomial.make([0, -1] + [0] * 6 + [1])  # z(z^7-1)
    h = halley_of(p)
    real_poles = [c.location for c in poles(h)
                  if abs(c.location.imag) < 1e-9]
    assert len(real_poles) == 1
    assert abs(real_poles[0].real + (1.0 / 6.0) ** (1.0 / 7.0)) < 1e-9


def test_free_critical_points_match_known_pair():
    h = halley_of(CUBIC_ODD)
    roots = find_roots(CUBIC_ODD)
    free = free_critical_points(h, roots)
    locs = sorted((c.location for c in free), key=lambda z: z.imag)
    assert len(locs) == 2
    s = 1.0 / math.sqrt(6.0)
    assert abs(locs[0] + 1j * s) < 1e-8
    assert abs(locs[1] - 1j * s) < 1e-8


def test_newton_close_steps_on_the_derivative_at_a_double_cluster():
    # (z - z0)^2 (z - 1): a Newton step on c' moves z0 by nothing, and one
    # from 1e-3 away moves it by about 1e-3
    z0 = 0.3 + 0.4j
    c = np.array(Polynomial.from_roots([z0, z0, 1.0]).coeffs, dtype=np.complex128)
    assert ratmap._newton_close(c, polycore.RootCluster(z0, 2))
    assert not ratmap._newton_close(c, polycore.RootCluster(z0 + 1e-3, 2))


# exact oracle: reduced degrees against sympy's gcd of the raw num and den,
# all in exact arithmetic over the Gaussian rationals
def _exact_roots(spec):
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    exact = sp.Poly(1, z, gaussian=True)
    for re, im, m in spec:
        exact *= sp.Poly(z - sp.Rational(re) - sp.I * sp.Rational(im), z, gaussian=True) ** m
    approx = Polynomial.from_roots([complex(float(re), float(im))
                                    for re, im, m in spec for _ in range(m)])
    return exact, approx


def _exact_coeffs(coeffs):
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    exact = sp.Poly(list(reversed(coeffs)), z, gaussian=True)
    return exact, Polynomial.make(coeffs)


ORACLE_POLYNOMIALS = {
    "z^8 - z": lambda: _exact_coeffs([0, -1, 0, 0, 0, 0, 0, 0, 1]),
    "z(z - 1)^2": lambda: _exact_coeffs([0, 1, -2, 1]),
    "(z^2 - 1)^3": lambda: _exact_coeffs([-1, 0, 3, 0, -3, 0, 1]),
    # two triple roots: the raw Halley products once made the root finder
    # over-deflate here
    "two-triples": lambda: _exact_roots([("1.354", "0.532", 3), ("1.123", "0.987", 3),
                                         ("0.402", "1.404", 1), ("-0.481", "-0.775", 1)]),
    "three-doubles": lambda: _exact_roots([("-1.181", "0.672", 2), ("-0.617", "-0.627", 2),
                                           ("-0.588", "1.042", 2), ("-0.518", "-1.237", 1),
                                           ("0.263", "-0.985", 1)]),
    # a double non-root critical point: at 0, where make_reduced also
    # shifts out common powers of z, and at 1
    "z^3 - 1": lambda: _exact_coeffs([-1, 0, 0, 1]),
    "(z - 1)^3 + 2": lambda: _exact_coeffs([1, 3, -3, 1]),
    # Chebyshev's bracket p'^2 - sigma p p'' loses its leading Taylor term
    # at a k-fold root when k^2 = sigma k(k - 1): sigma = 2 at the double
    # root 0, whose next Taylor coefficient is 0, and sigma = 4/3 at k = 4
    "z^4 - z^2": lambda: _exact_coeffs([0, 0, -1, 0, 1]),
    "(z - 1)^4 (z + 1)": lambda: _exact_roots([("1", "0", 4), ("-1", "0", 1)]),
}


def _exact_tower(P, n):
    """Koenig's q_0 .. q_n of the sympy Poly P."""
    sp = pytest.importorskip("sympy")
    tower = [sp.Poly(1, P.gen, domain=P.domain)]
    for k in range(n):
        tower.append(tower[-1].diff() * P - (k + 1) * tower[-1] * P.diff())
    return tower


def _exact_terms(method, P, h=0):
    """The raw num and den of method on P, with P in the variable z - h."""
    sp = pytest.importorskip("sympy")
    x = sp.Poly(P.gen + h, P.gen, domain=P.domain)
    d1, d2 = P.diff(), P.diff().diff()
    kind, arg = method
    if kind == "halley":
        den = 2 * d1 ** 2 - P * d2
        return x * den - 2 * P * d1, den
    if kind == "konig":
        tower = _exact_tower(P, arg - 1)
        return x * tower[-1] + (arg - 1) * tower[-2] * P, tower[-1]
    bracket = d1 ** 2 - sp.Rational(arg) * P * d2
    return x * d1 * bracket - P * (bracket + P * d2 * sp.Rational(1, 2)), d1 * bracket


ORACLE_METHODS = {
    "halley": (("halley", None), halley_of),
    "konig(2)": (("konig", 2), lambda p: konig_of(p, 2)),
    "konig(3)": (("konig", 3), lambda p: konig_of(p, 3)),
    "konig(4)": (("konig", 4), lambda p: konig_of(p, 4)),
    "konig(5)": (("konig", 5), lambda p: konig_of(p, 5)),
    "konig(6)": (("konig", 6), lambda p: konig_of(p, 6)),
    "chebyshev(0)": (("chebyshev", "0"), lambda p: chebyshev_halley_of(p, 0.0)),
    "chebyshev(1/2)": (("chebyshev", "1/2"), lambda p: chebyshev_halley_of(p, 0.5)),
    "chebyshev(3/2)": (("chebyshev", "3/2"), lambda p: chebyshev_halley_of(p, 1.5)),
    "chebyshev(4/3)": (("chebyshev", "4/3"), lambda p: chebyshev_halley_of(p, 4 / 3)),
    "chebyshev(2)": (("chebyshev", "2"), lambda p: chebyshev_halley_of(p, 2.0)),
}


@pytest.mark.parametrize("method", sorted(ORACLE_METHODS))
@pytest.mark.parametrize("poly", sorted(ORACLE_POLYNOMIALS))
def test_reduced_degree_matches_exact_gcd(poly, method):
    exact, approx = ORACLE_POLYNOMIALS[poly]()
    spec, build = ORACLE_METHODS[method]
    num, den = _exact_terms(spec, exact)
    g = num.gcd(den).degree()
    assert build(approx).degree == max(num.degree(), den.degree()) - g


# the cancellation orders the constructors use, derived in exact
# arithmetic: around a point h, p(h + t) = t^k u(t) at a k-fold root and
# c + t^(m+1) v(t) at a non-root critical point of multiplicity m, for
# random nonzero rational u, v and c; the order in t of gcd(num, den)
# must equal each family's rule
RULE_METHODS = [("halley", None)] + [("chebyshev", s) for s in ("0", "1/2", "1", "3/2", "2")] \
    + [("konig", n) for n in range(2, 6)]


def _t_order(f):
    return next(j for j, c in enumerate(reversed(f.all_coeffs())) if c != 0)


def _root_rule(method, k):
    sp = pytest.importorskip("sympy")
    kind, arg = method
    if kind == "halley":
        return 2 * (k - 1)
    if kind == "konig":
        return (arg - 1) * (k - 1)
    return 3 * k - 2 if k * k == sp.Rational(arg) * k * (k - 1) else 3 * (k - 1)


def _critical_rule(method, m, P):
    sp = pytest.importorskip("sympy")
    kind, arg = method
    if kind == "halley":
        return m - 1
    if kind == "konig":  # mu - 1 at a zero of q_{n-2} of multiplicity mu
        return max(_t_order(_exact_tower(P, arg - 2)[-1]) - 1, 0)
    return 2 * m - 1 if sp.Rational(arg) == sp.Rational(1, 2) else m - 1


def _random_rational_poly(rng, t, degree):
    sp = pytest.importorskip("sympy")
    coeffs = [sp.Rational(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
              for _ in range(degree + 1)]
    return sp.Poly(list(reversed(coeffs)), t, domain="QQ")


@pytest.mark.parametrize("method", RULE_METHODS,
                         ids=lambda m: m[0] if m[1] is None else f"{m[0]}({m[1]})")
def test_cancellation_rules_match_exact_gcd(method):
    sp = pytest.importorskip("sympy")
    rng = random.Random(0)
    t = sp.Symbol("t")
    for h in (0, sp.Rational(-3, 7)):
        for k in range(1, 5):
            P = sp.Poly(t ** k, t, domain="QQ") * _random_rational_poly(rng, t, 2)
            num, den = _exact_terms(method, P, h)
            assert _t_order(num.gcd(den)) == _root_rule(method, k), (h, k)
        for m in range(1, 4):
            c = _random_rational_poly(rng, t, 0)
            P = c + sp.Poly(t ** (m + 1), t, domain="QQ") * _random_rational_poly(rng, t, 2)
            num, den = _exact_terms(method, P, h)
            assert _t_order(num.gcd(den)) == _critical_rule(method, m, P), (h, m)


def test_critical_polynomials_are_the_derivative_numerators():
    # for a generic p: H' = p^2 E / (2p'^2 - pp'')^2 with E = 3p''^2 - 2p'p''';
    # R' = p^2 E_sigma / (2 (p' b)^2) for Chebyshev-Halley with bracket b;
    # K' = (n q_{n-1}^2 - (n-1) q_{n-2} q_n) / q_{n-1}^2, whose numerator is
    # p W with W = n q_{n-1} q_{n-2}' - (n-1) q_{n-2} q_{n-1}' (W = p E at n = 3)
    sp = pytest.importorskip("sympy")
    z, s = sp.symbols("z sigma")
    p = sp.Function("p")(z)
    d1, d2, d3 = (p.diff(z, i) for i in (1, 2, 3))
    e = 3 * d2 ** 2 - 2 * d1 * d3
    halley = z - 2 * p * d1 / (2 * d1 ** 2 - p * d2)
    assert sp.simplify(halley.diff(z) - p ** 2 * e / (2 * d1 ** 2 - p * d2) ** 2) == 0
    bracket = d1 ** 2 - s * p * d2
    e_sigma = 3 * (1 - s) * d1 ** 2 * d2 ** 2 - d1 ** 3 * d3 + s * (2 * s - 1) * p * d2 ** 3
    cheb = z - (1 + p * d2 / 2 / bracket) * p / d1
    assert sp.simplify(cheb.diff(z) - p ** 2 * e_sigma / (2 * (d1 * bracket) ** 2)) == 0
    assert sp.expand(e_sigma.subs(s, sp.Rational(1, 2)) - d1 ** 2 * e / 2) == 0
    q = [sp.Integer(1)]
    for k in range(6):
        q.append(sp.expand(q[-1].diff(z) * p - (k + 1) * q[-1] * d1))
    for n in range(2, 6):
        numerator = n * q[n - 1] ** 2 - (n - 1) * q[n - 2] * q[n]
        w = n * q[n - 1] * q[n - 2].diff(z) - (n - 1) * q[n - 2] * q[n - 1].diff(z)
        konig = z + (n - 1) * q[n - 2] * p / q[n - 1]
        assert sp.simplify(konig.diff(z) * q[n - 1] ** 2 - numerator) == 0
        assert sp.expand(numerator - p * w) == 0
    assert sp.expand(3 * q[2] * q[1].diff(z) - 2 * q[1] * q[2].diff(z) - p * e) == 0


def _exact_critical(method, P):
    """The critical polynomial a constructor states for method on the sympy
    Poly P: Halley's E (also for Koenig(3) and Chebyshev(1/2)), Koenig's W
    or Chebyshev's E_sigma."""
    sp = pytest.importorskip("sympy")
    d1 = P.diff()
    d2 = d1.diff()
    kind, arg = method
    if kind == "halley" or method in (("konig", 3), ("chebyshev", "1/2")):
        return 3 * d2 ** 2 - 2 * d1 * d2.diff()
    if kind == "konig":
        q = _exact_tower(P, arg - 1)
        return arg * q[-1] * q[-2].diff() - (arg - 1) * q[-2] * q[-1].diff()
    s = sp.Rational(arg)
    return 3 * (1 - s) * d1 ** 2 * d2 ** 2 - d1 ** 3 * d2.diff() + s * (2 * s - 1) * P * d2 ** 3


@pytest.mark.parametrize("method", RULE_METHODS,
                         ids=lambda m: m[0] if m[1] is None else f"{m[0]}({m[1]})")
def test_free_critical_orders_match_exact_arithmetic(method):
    # each constructor's critical polynomial and its deflations, on p with
    # a k-fold root (k = 1..4) or a non-root critical point of multiplicity
    # m (m = 1..3) at 0, as in test_cancellation_rules_match_exact_gcd: at
    # the root f is deflated to its full order in t; at the critical point
    # what deflation leaves of f, plus the multiplicity kept there, is the
    # reduced map's own derivative numerator's order
    sp = pytest.importorskip("sympy")
    rng = random.Random(0)
    t = sp.Symbol("t")
    kind, arg = method
    build = {"halley": halley_of, "konig": lambda p: konig_of(p, arg),
             "chebyshev": lambda p: chebyshev_halley_of(p, float(sp.Rational(arg)))}[kind]
    cases = [(True, sp.Poly(t ** k, t, domain="QQ") * _random_rational_poly(rng, t, 2))
             for k in range(1, 5)]
    cases += [(False, _random_rational_poly(rng, t, 0)
               + sp.Poly(t ** (m + 1), t, domain="QQ") * _random_rational_poly(rng, t, 2))
              for m in range(1, 4)]
    for at_root, P in cases:
        R = build(Polynomial.make([complex(c) for c in reversed(P.all_coeffs())]))
        f, orders, kept = R.free_critical
        C = _exact_critical(method, P)
        want = np.array([complex(c) for c in reversed(C.all_coeffs())])
        assert np.abs(np.array(f.coeffs) - want).max() <= 1e-12 * np.abs(want).max()
        order = next((count for h, count in orders if abs(h) <= 1e-6), 0)
        if at_root:
            assert max(order, 0) == _t_order(C), P
            continue
        num, den = _exact_terms(method, P)
        g = num.gcd(den)
        num, den = num.quo(g), den.quo(g)
        kept_here = next((c.multiplicity for c in kept if abs(c.location) <= 1e-6), 0)
        assert 0 <= order <= _t_order(C), P
        assert _t_order(C) - order + kept_here == _t_order(num.diff() * den - num * den.diff()), P


@pytest.mark.parametrize("sigma", ["0", "1", "3/2", "2", "5/2", "11/6"])
def test_chebyshev_fixed_point_orders_match_exact_arithmetic(sigma):
    # chebyshev_halley_of searches f = 2p'^2 + (1 - 2 sigma) p p'' for fixed
    # points after dividing out (z - h) 2k - 2 times at a k-fold root, or
    # 2k - 1 times where 2k^2 + (1 - 2 sigma) k(k - 1) is zero (sigma = 5/2
    # at k = 2, 2 at k = 3, 11/6 at k = 4), and m - 1 times at a non-root
    # critical point; p(h + t) as in test_cancellation_rules_match_exact_gcd
    sp = pytest.importorskip("sympy")
    s = sp.Rational(sigma)
    rng = random.Random(0)
    t = sp.Symbol("t")

    def f_order(P):
        return _t_order(2 * P.diff() ** 2 + (1 - 2 * s) * P * P.diff().diff())

    for k in range(1, 5):
        P = sp.Poly(t ** k, t, domain="QQ") * _random_rational_poly(rng, t, 2)
        lost = 2 * k * k + (1 - 2 * s) * k * (k - 1) == 0
        assert f_order(P) == (2 * k - 1 if lost else 2 * k - 2), k
    for m in range(1, 4):
        P = _random_rational_poly(rng, t, 0) \
            + sp.Poly(t ** (m + 1), t, domain="QQ") * _random_rational_poly(rng, t, 2)
        assert f_order(P) == m - 1, m


def test_konig_critical_order_is_no_rule_in_the_multiplicity():
    # z^3 - 1 has a double critical point at 0, and 1/p = -(1 + z^3 + z^6
    # + ...) has only every third Taylor term: Koenig(6) cancels order 1
    # there (q_4 has a double zero), where m - n + 2 would give none
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    P = sp.Poly(t ** 3 - 1, t, domain="QQ")
    num, den = _exact_terms(("konig", 6), P)
    assert _t_order(num.gcd(den)) == _critical_rule(("konig", 6), 2, P) == 1


# the benchmark corpus's pool entry 17, by its roots
POOL_17 = [1.354 + 0.532j] * 3 + [0.402 + 1.404j] + [1.123 + 0.987j] * 3 + [-0.481 - 0.775j]


@pytest.mark.parametrize("method, roots", [
    pytest.param("halley", None, id="halley"),
    pytest.param("konig(3)", None, id="konig(3)"),
    pytest.param("chebyshev(1/2)", None, id="chebyshev(1/2)"),
    pytest.param("chebyshev(1/2)", POOL_17, id="pool-17-chebyshev(1/2)")])
def test_halley_free_critical_points_keep_off_the_roots(method, roots):
    # E2's seed-3 entry 6: the derivative numerator's double zero at the
    # simple root near 0.0765-0.0068j once split into two "free" critical
    # points 2.1e-6 from it; konig(3) and chebyshev(1/2), Halley's map
    # built another way, did so there and on pool entry 17 until they read
    # Halley's E
    if roots is None:
        p = random_corpus(50, seed=CORPUS_SEED + 3)[6]
    else:
        p = Polynomial.from_roots(roots)
    R = ORACLE_METHODS[method][1](p)
    free = free_critical_points(R, R.source.roots)
    assert len(free) == len(free_critical_points(halley_of(p), R.source.roots))
    for c in free:
        assert min(abs(c.location - r.location) for r in R.source.roots) > 1e-4


def test_halley_special_points_come_from_the_source(monkeypatch):
    p = Polynomial.make([0, -1, 0, 0, 0, 0, 0, 0, 1])  # z^8 - z
    q = Polynomial.from_roots([1, 1, -1, 2j, -2j])
    maps = [halley_of(p), halley_of(q), konig_of(q, 4), chebyshev_halley_of(q, 0)]
    assert len(set(maps)) == 4  # constructed maps stay hashable
    want_fixed = [fixed_points(RationalMap(R.num, R.den)) for R in maps]
    free_maps = [maps[0], maps[2], maps[3]]
    want_free = [free_critical_points(RationalMap(R.num, R.den), R.source.roots)
                 for R in free_maps]
    degrees = []
    monkeypatch.setattr(ratmap, "find_roots",
                        lambda f, **kw: degrees.append(f.degree) or find_roots(f, **kw))
    # no root finding for fixed points, in any family; for critical points
    # only the rest of each map's own critical polynomial: for z^8 - z,
    # 3p''^2 - 2p'p''' = 672 z^5 (6z^7 + 1) of degree 2d - 4 = 12; for q
    # (d = 5), Koenig(4)'s W of degree 2(n - 1)(d - 1) - d = 19 less 2 at
    # each simple root and 4 at the double root 1, and Chebyshev's E_sigma
    # of degree 4d - 6 = 14 less 2 at the double root and 2 at each of p's
    # three simple non-root critical points
    got_fixed = [fixed_points(R) for R in maps]
    got_free = [free_critical_points(R, R.source.roots) for R in free_maps]
    assert degrees == [12, 9, 6]
    # those critical points are triple poles of the Chebyshev map: double
    # critical points, kept from p.critical
    assert [sorted(c.multiplicity for c in f) for f in got_free] == \
        [[1] * 7, [1] * 9, [1] * 6 + [2] * 3]
    for got, want in zip(got_free, want_free):
        assert sorted(c.multiplicity for c in got) == sorted(c.multiplicity for c in want)
        assert all(ratmap.matching_point(c.location, want) for c in got)
    for got, want in zip(got_fixed, want_fixed):
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got[:-1], want[:-1])) < 1e-9
    # a critical polynomial that does not fit the map fails the gate, and
    # the map's own polynomials are root-found instead; so does a list of
    # fixed points with a moved point (not fixed) or a point short
    # (miscounted).  The change is high in f: deflation drops the low terms
    for R, want in zip(free_maps[:2], want_free):
        f, orders, kept = R.free_critical
        moved = (f + Polynomial.make([0] * f.degree + [1e-3 * f.lead]), orders, kept)
        assert free_critical_points(replace(R, free_critical=moved), R.source.roots) == want
    for R, want in zip(maps, want_fixed):
        assert fixed_points(replace(R, fixed=(R.fixed[0] + 1e-3,) + R.fixed[1:])) == want
        assert fixed_points(replace(R, fixed=R.fixed[1:])) == want


def test_free_critical_points_reject_a_closed_form_that_lost_accuracy():
    # the benchmark corpus's pool entry 28 at konig(4): dividing W's zeros
    # of order 4 and 9 at the double and triple roots out of its rounded
    # coefficients moves the zeros left by up to 0.19, though each passes
    # the residual gate; the Newton step on R's own numerator rejects them
    p = Polynomial.from_roots([-0.149 - 0.821j] * 2 + [-1.154 - 0.64j] * 2
                              + [-0.675 - 0.329j] * 3)
    R = konig_of(p, 4)
    got = free_critical_points(R, R.source.roots)
    assert got == free_critical_points(RationalMap(R.num, R.den), R.source.roots)


def test_chebyshev_map_builds_when_its_fixed_point_search_fails(monkeypatch):
    q = Polynomial.from_roots([1, 1, -1, 2j, -2j])
    q.roots, q.critical  # p and p' root-found before the patch
    degrees = []

    def fail_first(f, **kw):
        degrees.append(f.degree)
        if len(degrees) == 1:
            raise NonConvergence("no convergence")
        return find_roots(f, **kw)

    for module in (polycore, ratmap):
        monkeypatch.setattr(module, "find_roots", fail_first)
    R = chebyshev_halley_of(q, 0)
    # the search on the rest of 2p'^2 + p p'' failed: the map is built as
    # usual, carries no list, and its fixed points are root-found on g
    assert R.fixed is None and degrees == [6]
    S = chebyshev_halley_of(Polynomial.make(q.coeffs), 0)
    assert (R.num, R.den) == (S.num, S.den)
    got = fixed_points(R)
    assert len(degrees) == 5 and degrees[-1] == R.degree
    assert got == fixed_points(RationalMap(R.num, R.den))


def test_pool_17_fixed_points_off_the_roots_fall_back():
    # the benchmark corpus's pool entry 17: konig(4) and chebyshev(0) have
    # fixed points more than FIXED_RTOL from p's roots that they
    # list, so fixed_points root-finds them and classification succeeds
    p = Polynomial.from_roots(POOL_17)
    for R in (konig_of(p, 4), chebyshev_halley_of(p, 0)):
        assert not all(ratmap.is_fixed_point(R, z) for z in R.fixed)
        assert len(classify_fixed_points(p, R)) == R.degree + 1


def _count_find_roots(monkeypatch) -> list:
    """The degrees of the polynomials find_roots is called on from now on,
    from polycore (p.roots, p.critical) and from ratmap alike."""
    degrees = []

    def counting(f, **kw):
        degrees.append(f.degree)
        return find_roots(f, **kw)

    for module in (polycore, ratmap):
        monkeypatch.setattr(module, "find_roots", counting)
    return degrees


def test_polynomial_finds_its_roots_and_critical_points_once(monkeypatch):
    p = Polynomial.from_roots([0, 1, 1, -2, -2, -2])
    degrees = _count_find_roots(monkeypatch)
    assert p.roots == tuple(find_roots(p)) and degrees == [6]
    # p' has the double root 1 and the triple root -2 as zeros; the two
    # simple zeros off the roots are p's critical points
    assert [c.multiplicity for c in p.critical] == [1, 1]
    assert all(abs(p.deriv()(c.location)) <= 1e-12 for c in p.critical)
    assert p.roots is p.roots and p.critical is p.critical and degrees == [6, 5]
    R = halley_of(p)
    assert R.source is p and degrees == [6, 5]
    # an equal but distinct object finds its own, and hashes alike
    q = Polynomial.make(p.coeffs)
    assert q == p and hash(q) == hash(p) and q.roots == p.roots and degrees[2:] == [6]
    assert q.critical == p.critical and degrees[2:] == [6, 5]


def test_one_source_per_polynomial_object(monkeypatch):
    p = Polynomial.from_roots([0, 1, 1, -2, -2, -2])
    degrees = _count_find_roots(monkeypatch)
    halley_of(p), konig_of(p, 4), chebyshev_halley_of(p, 0), degree_census(p)
    # p and p' once, the rest of q_2 that konig_of(p, 4) searches, and the
    # rest of 2p'^2 + p p'' that chebyshev_halley_of(p, 0) searches
    assert degrees == [6, 5, 4, 4]
    # an equal but distinct object finds its own
    degrees.clear()
    halley_of(Polynomial.make(p.coeffs))
    assert degrees == [6, 5]


def test_halley_critical_points_with_a_root_at_the_origin():
    # p(0) = 0, and the derivative numerator of p's Halley map has a double
    # zero at 0 whose constant coefficient is rounding noise: find_roots
    # deflates it as zero (below TRIM_RTOL), and its residual gate must
    # then accept it rather than raise NonConvergence
    R = halley_of(Polynomial.from_roots([0, 1, 1, -2, -2, -2]))
    got = ratmap.critical_points(R)
    assert R.degree == 5 and sum(c.multiplicity for c in got) == 2 * R.degree - 2
    assert [c.multiplicity for c in got if abs(c.location) <= 1e-12] == [2]


# exact oracle for the fixed points each constructor lists, and for the
# Halley source rule of free critical points: each polynomial exercises
# one case of the deflation and exclusion, checked against the reduced
# map's own polynomials in exact arithmetic
SOURCE_RULE_POLYNOMIALS = {
    "(z^2 - 1)^3": [-1, 0, 3, 0, -3, 0, 1],    # 3-fold roots
    "z^3 - 1": [-1, 0, 0, 1],                   # a 2-fold critical point
    "z^4 - z": [0, -1, 0, 0, 1],                # a simple root where E vanishes
    "z^8 - z": [0, -1, 0, 0, 0, 0, 0, 0, 1],    # double poles at 6z^7 + 1 = 0
    "z(z - 1)^2(z + 2)^3": [0, 8, -4, -10, 1, 4, 1],  # mixed multiplicities
}
# chebyshev(2) maps a double root off itself, and has a double fixed point
# at a triple root
SOURCE_RULE_METHODS = ("halley", "konig(3)", "konig(4)", "chebyshev(0)", "chebyshev(1/2)",
                       "chebyshev(2)")


def _exact_zeros(f, exclude=None):
    """(location, multiplicity) for the zeros of the sympy Poly f, leaving
    out the irreducible factors that divide exclude."""
    return [(complex(r), m) for fac, m in f.factor_list()[1]
            if exclude is None or not exclude.rem(fac).is_zero
            for r in fac.nroots(n=30)]


def _assert_same_zeros(got, want, tol=1e-9):
    assert sorted(m for _, m in got) == sorted(m for _, m in want)
    for z, m in want:
        assert any(abs(w - z) <= tol and k == m for w, k in got), (z, m)


@pytest.mark.parametrize("method, poly", [
    pytest.param(m, poly, id=poly if m == "halley" else f"{m}-{poly}")
    for m in SOURCE_RULE_METHODS for poly in sorted(SOURCE_RULE_POLYNOMIALS)])
def test_halley_special_points_match_exact_oracle(method, poly):
    sp = pytest.importorskip("sympy")
    coeffs = SOURCE_RULE_POLYNOMIALS[poly]
    z = sp.Symbol("z")
    P = sp.Poly(list(reversed(coeffs)), z, domain="QQ")
    spec, build = ORACLE_METHODS[method]
    num, den = _exact_terms(spec, P)
    g = num.gcd(den)
    num, den = num.quo(g), den.quo(g)
    R = build(Polynomial.make(coeffs))
    free = free_critical_points(R, R.source.roots)
    _assert_same_zeros([(c.location, c.multiplicity) for c in free],
                       _exact_zeros(num.diff() * den - num * den.diff(), exclude=P))
    # fixed_points lists each fixed point once: every exact one is simple,
    # bar chebyshev(2)'s double ones, where only the locations are compared
    finite = [w for w in fixed_points(R) if not is_infinity(w)]
    exact = _exact_zeros(num - sp.Poly(z, z, domain="QQ") * den)
    if method == "chebyshev(2)":
        exact = [(w, 1) for w, _ in exact]
    _assert_same_zeros([(w, 1) for w in finite], exact)
