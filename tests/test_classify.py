"""Fixed-point classification against the predicted multipliers."""

import numpy as np
import pytest

from halleydyn.classify import (
    classify_fixed_points,
    classify_multiplier,
    extraneous_fixed_points,
)
from halleydyn.polycore import AffineMap, Polynomial, compose_affine
from halleydyn.ratmap import halley_of, is_infinity


def by_location(records, z, tol=1e-8):
    hits = [r for r in records if not is_infinity(r.location)
            and abs(r.location - z) < tol]
    assert len(hits) == 1, f"no unique record at {z}"
    return hits[0]


def test_classify_multiplier_bands():
    assert classify_multiplier(0.0) == "superattracting"
    assert classify_multiplier(0.4) == "attracting"
    assert classify_multiplier(3.0) == "repelling"
    assert classify_multiplier(-1.0) == "rationally_indifferent"
    assert classify_multiplier(np.exp(2j * np.sqrt(2))) == "irrationally_indifferent"


def test_cubic_with_double_root():
    p = Polynomial.make([0, 1, -2, 1])  # z(z-1)^2
    h = halley_of(p)
    records = classify_fixed_points(p, h)
    assert len(records) == h.degree + 1

    simple = by_location(records, 0.0)
    assert simple.origin.kind == "root"
    assert simple.klass == "superattracting"

    double = by_location(records, 1.0)
    assert double.origin.kind == "root"
    assert double.klass == "attracting"
    assert abs(double.multiplier - 1.0 / 3.0) < 1e-9

    extr = by_location(records, 1.0 / 3.0)
    assert extr.origin.kind == "critical"
    assert extr.klass == "repelling"
    assert abs(extr.multiplier - 3.0) < 1e-9

    inf_rec = [r for r in records if is_infinity(r.location)]
    assert len(inf_rec) == 1
    assert inf_rec[0].origin.kind == "infinity"
    assert abs(inf_rec[0].multiplier - 2.0) < 1e-6


def test_extraneous_filter_returns_critical_origins():
    p = Polynomial.make([0, 1, -2, 1])
    records = classify_fixed_points(p, halley_of(p))
    extr = extraneous_fixed_points(records)
    assert [r.origin.kind for r in extr] == ["critical"]
    assert abs(extr[0].location - 1.0 / 3.0) < 1e-9


def test_extraneous_of_shifted_double_root():
    # (z-1)(z+2)^2: the lone extraneous point sits at the multiplicity
    # weighted mean (1*2 + (-2)*1)/3 = 0 and repels with multiplier 3
    p = Polynomial.from_roots([1.0, -2.0, -2.0])
    records = classify_fixed_points(p, halley_of(p))
    extr = extraneous_fixed_points(records)
    assert len(extr) == 1
    assert abs(extr[0].location) < 1e-9
    assert abs(extr[0].multiplier - 3.0) < 1e-9


def test_extraneous_of_double_zero():
    # z^2(z-1): extraneous at 2/3 with multiplier 1 + 2/1 = 3
    p = Polynomial.make([0, 0, -1, 1])
    records = classify_fixed_points(p, halley_of(p))
    extr = extraneous_fixed_points(records)
    assert len(extr) == 1
    assert abs(extr[0].location - 2.0 / 3.0) < 1e-9
    assert abs(extr[0].multiplier - 3.0) < 1e-9


def test_every_extraneous_point_repels():
    rng = np.random.default_rng(41)
    seen = 0
    for _ in range(25):
        target = int(rng.integers(2, 4))
        roots = []
        for _ in range(60):
            cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(cand - r) > 0.7 for r in roots):
                roots.append(cand)
            if len(roots) == target:
                break
        mults = [int(rng.integers(1, 4)) for _ in roots]
        if len(roots) < 2:
            continue
        p = Polynomial.from_roots(
            [r for r, m in zip(roots, mults) for _ in range(m)])
        records = classify_fixed_points(p, halley_of(p))
        for r in extraneous_fixed_points(records):
            assert abs(r.multiplier) > 1.0
            seen += 1
    assert seen > 0


def test_corpus_count_and_prediction_consistency():
    # classify_fixed_points raises on any multiplier drift, so a clean
    # pass over a random corpus is itself the assertion
    rng = np.random.default_rng(43)
    done = 0
    while done < 25:
        roots = []
        target = int(rng.integers(2, 5))
        for _ in range(80):
            cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(cand - r) > 0.7 for r in roots):
                roots.append(cand)
            if len(roots) == target:
                break
        if len(roots) < target:
            continue
        mults = [int(rng.integers(1, 4)) for _ in roots]
        if not 3 <= sum(mults) <= 6:
            continue
        p = Polynomial.from_roots(
            [r for r, m in zip(roots, mults) for _ in range(m)])
        h = halley_of(p)
        records = classify_fixed_points(p, h)
        assert len(records) == h.degree + 1
        done += 1


def test_affine_image_of_two_triples_matches_the_proposition():
    # two triple roots under an affine change of variable: the fixed points
    # found from num - z*den once put a critical-origin multiplier
    # 1.4e-6 from its predicted 3
    p = Polynomial.from_roots([1.354 + 0.532j] * 3 + [0.402 + 1.404j]
                              + [1.123 + 0.987j] * 3 + [-0.481 - 0.775j])
    T = AffineMap(-2.0866846928572085 + 0.022709569358355552j,
                  -0.4894711185263749 - 0.8563650214866148j)
    q = compose_affine(p, T).scale(1.0748473803520242 + 1.7694055114416058j)
    records = classify_fixed_points(q, halley_of(q))
    assert [r.origin.kind for r in records].count("critical") == 3
