"""Polynomial arithmetic, root finding, and the normalized form."""

import math

import numpy as np
import pytest

from halleydyn import polycore
from halleydyn.errors import NonConvergence, NotNormalized
from halleydyn.polycore import (
    AffineMap,
    Polynomial,
    compose_affine,
    find_roots,
    normalized_form,
)


def poly(*coeffs):
    return Polynomial.make(list(coeffs))


def test_find_roots_simple_pair():
    got = sorted(find_roots(poly(-1, 0, 1)), key=lambda c: c.location.real)
    assert [c.multiplicity for c in got] == [1, 1]
    assert abs(got[0].location + 1) < 1e-12
    assert abs(got[1].location - 1) < 1e-12


def test_find_roots_double_root():
    p = poly(0, 1) * poly(1, -1) * poly(1, -1)  # z(z-1)^2 up to sign
    got = sorted(find_roots(p), key=lambda c: c.location.real)
    assert [(round(c.location.real), c.multiplicity) for c in got] == [(0, 1), (1, 2)]


def test_find_roots_conjugate_pair():
    got = sorted(find_roots(poly(0, 6, 0, 1)), key=lambda c: c.location.imag)
    assert [c.multiplicity for c in got] == [1, 1, 1]
    s = math.sqrt(6.0)
    assert abs(got[0].location + 1j * s) < 1e-10
    assert abs(got[1].location) < 1e-12
    assert abs(got[2].location - 1j * s) < 1e-10


@pytest.mark.parametrize("p, real_count", [
    (poly(0, -1, 0, 0, 0, 0, 0, 0, 1), 2),                           # z^8 - z
    (poly(62.5144396, 6, 0, 1), 1),                                  # z^3 + 6z + b
    (poly(1, 0, 1) * poly(1, 0, 1) * poly(-2, 1) * poly(-2, 1) * poly(-2, 1), 1),
    (poly(0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),                     # z(z^9 - 1)
])
def test_real_polynomial_roots_pair_exactly_under_conjugation(p, real_count):
    # real roots have imaginary part exactly 0; every other cluster's
    # conjugate is exactly a cluster, of the same multiplicity
    clusters = find_roots(p)
    assert sum(c.multiplicity for c in clusters) == p.degree
    mult = {c.location: c.multiplicity for c in clusters}
    real = [c for c in clusters if abs(c.location.imag) < 1e-6]
    assert len(real) == real_count
    assert all(c.location.imag == 0.0 for c in real)
    for c in clusters:
        if c.location.imag != 0.0:
            partner = c.location.conjugate()
            assert partner != c.location and mult.get(partner) == c.multiplicity


def test_non_real_coefficients_leave_roots_as_found():
    # no pairing: the roots, noise included, are those found before the
    # pairing of real polynomials existed
    got = [(c.location, c.multiplicity) for c in find_roots(poly(0.5j, 1 + 2j, 0, 1))]
    assert got == [(-0.6928590689970027 + 1.3324541917846833j, 1),
                   (-0.1955063811040061 - 0.09863642134329398j, 1),
                   (0.8883654501010089 - 1.2338177704413893j, 1)]
    p = Polynomial.from_roots([0.3 + 1j, 0.3 - 1j, -1, -1, 2 + 0.5j])
    got = [(c.location, c.multiplicity) for c in find_roots(p)]
    assert got == [(-0.9999999999999999 - 1.2757195023576886e-17j, 2),
                   (0.2999999999999999 + 0.9999999999999998j, 1),
                   (0.29999999999999993 - 0.9999999999999998j, 1),
                   (2 + 0.5j, 1)]


def _random_factored(rng, max_deg=8):
    """Random polynomial with known, well separated roots."""
    while True:
        n_distinct = int(rng.integers(2, 5))
        roots = []
        for _ in range(50):
            cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(cand - r) > 0.8 for r in roots):
                roots.append(cand)
            if len(roots) == n_distinct:
                break
        if len(roots) < n_distinct:
            continue
        mults = [int(rng.integers(1, 4)) for _ in roots]
        if sum(mults) > max_deg:
            continue
        return roots, mults


def test_find_roots_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        roots, mults = _random_factored(rng)
        c = np.array([1.0 + 0j])
        for r, k in zip(roots, mults):
            for _ in range(k):
                c = np.convolve(c, [-r, 1.0])
        p = Polynomial.make(c)
        found = find_roots(p)
        assert sum(f.multiplicity for f in found) == p.degree
        back = np.array([1.0 + 0j])
        for f in found:
            for _ in range(f.multiplicity):
                back = np.convolve(back, [-f.location, 1.0])
        scale = np.abs(c).max()
        assert np.abs(back - c).max() < 1e-8 * scale


def test_find_roots_over_deflation_is_non_convergence():
    # Halley's denominator 2p'^2 - p p'' for a p with two triple roots: the
    # derivative clusters claim more multiplicity than the polynomial has
    p = Polynomial.from_roots([1.354 + 0.532j] * 3 + [1.123 + 0.987j] * 3
                              + [0.402 + 1.404j, -0.481 - 0.775j])
    dp = p.deriv()
    g = (dp * dp).scale(2.0) - p * p.deriv(2)
    try:
        clusters = find_roots(g)
    except NonConvergence:
        return
    assert sum(c.multiplicity for c in clusters) == g.degree


def test_companion_fallback_sharpens_a_double_cluster():
    # (z - 1)^2 (z + 2): the companion cloud smears the double root over
    # about sqrt(eps), and Newton on p' brings it back to full accuracy
    clusters = polycore._companion_clusters(np.array([2, -3, 0, 1], dtype=np.complex128))
    double = [loc for loc, m in clusters if m == 2]
    assert sorted(m for _, m in clusters) == [1, 2]
    assert len(double) == 1 and abs(double[0] - 1) <= 1e-12


def test_deflated_divides_out_each_point_count_times():
    p = poly(1, 0, 1)  # z**2 + 1
    q = p.deflated([(1j, 1)])
    assert q.degree == 1 and abs(q(-1j)) <= 1e-12  # q = z + i
    # z**2 + 1 = (z + 1)(z - 1) + 2: the remainder p(1) = 2 is discarded
    assert p.deflated([(1.0, 1)]).coeffs == (1 + 0j, 1 + 0j)
    # each point count times, in order; a count of 0 divides by nothing
    r = Polynomial.from_roots([2.0, 2.0, -1.0, 3.0])
    assert r.deflated([(2.0, 2), (-1.0, 1), (5.0, 0)]).coeffs == (-3 + 0j, 1 + 0j)
    assert r.deflated([]) == r


def test_is_real_means_every_imaginary_part_is_exactly_zero():
    assert poly(-1, 0, 1).is_real and Polynomial(()).is_real
    assert not poly(-1, 1e-300j, 1).is_real
    assert not poly(-1, 1e-12j, 1).is_real


def test_compose_affine_identity():
    p = poly(-1, 0, 1)
    q = compose_affine(p, AffineMap(1.0))
    assert q.coeffs == p.coeffs


def test_compose_affine_rescales_roots():
    a = 2.5
    p = poly(-a * a, 0, 1)  # z^2 - a^2
    q = compose_affine(p, AffineMap(a)).scale(1.0 / (a * a))
    assert np.allclose(q.coeffs, (-1, 0, 1))


def test_compose_affine_translation():
    p = poly(-1, 0, 1)
    q = compose_affine(p, AffineMap(1.0, 1.0))  # p(z+1) = z^2 + 2z
    assert np.allclose(q.coeffs, (0, 2, 1))


def test_normalized_form_even_cubic():
    nf = normalized_form(poly(0, -1, 0, 1))  # z^3 - z
    assert (nf.alpha, nf.beta) == (1, 2)
    assert np.allclose(nf.p0.coeffs, (-1, 1))


def test_normalized_form_quartic():
    nf = normalized_form(poly(0, -1, 0, 0, 1))  # z^4 - z
    assert (nf.alpha, nf.beta) == (1, 3)
    assert np.allclose(nf.p0.coeffs, (-1, 1))


def test_normalized_form_monomial():
    nf = normalized_form(poly(0, 0, 0, 0, 0, 1))  # z^5
    assert (nf.alpha, nf.beta) == (5, 1)
    assert np.allclose(nf.p0.coeffs, (1,))


def test_normalized_form_rejects_nonmonic():
    with pytest.raises(NotNormalized):
        normalized_form(poly(-1, 0, 2))
    with pytest.raises(NotNormalized):
        normalized_form(poly(1, 1, 1))  # nonzero second-leading coefficient


def test_normalized_form_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        beta = int(rng.integers(1, 4))
        alpha = int(rng.integers(0, 3))
        deg0 = int(rng.integers(1, 4))
        c0 = rng.normal(size=deg0 + 1) + 1j * rng.normal(size=deg0 + 1)
        c0[-1] = 1.0  # monic base
        # plant p(z) = z^alpha * p0(z^beta)
        coeffs = np.zeros(alpha + beta * deg0 + 1, dtype=complex)
        for k, ck in enumerate(c0):
            coeffs[alpha + beta * k] = ck
        if len(coeffs) >= 2 and abs(coeffs[-2]) > 0:
            continue  # would not be normalized
        p = Polynomial.make(coeffs)
        nf = normalized_form(p)
        rebuilt = np.zeros(nf.alpha + nf.beta * nf.p0.degree + 1, dtype=complex)
        for k, ck in enumerate(nf.p0.coeffs):
            rebuilt[nf.alpha + nf.beta * k] = ck
        assert len(rebuilt) == len(coeffs)
        assert np.abs(rebuilt - coeffs).max() < 1e-12
