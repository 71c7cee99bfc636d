"""Fixed-point classification for Halley maps and their relatives.

Every fixed point of a Halley map traces back to the input polynomial:
a root of multiplicity k carries multiplier (k-1)/(k+1), a non-root
critical point of multiplicity l carries multiplier 1 + 2/l, and
infinity carries (d+1)/(d-1) for d = deg p.  classify_fixed_points
measures each multiplier from the map and, for a Halley map, cross-checks
it against the value predicted from the point's origin.  Koenig and
Chebyshev-Halley maps get measured classes and origins only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PropositionMismatch
from .polycore import Polynomial
from .ratmap import (SUPERATTRACTING_TOL, RationalMap, fixed_points, is_infinity,
                     matching_point, multiplier_at)

INDIFFERENCE_BAND = 1e-6
PREDICTION_TOL = 1e-6

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
REPELLING = "repelling"
RATIONALLY_INDIFFERENT = "rationally_indifferent"
IRRATIONALLY_INDIFFERENT = "irrationally_indifferent"


@dataclass(frozen=True)
class Origin:
    """Provenance of a fixed point: kind is 'root', 'critical', 'infinity'
    or 'other'; multiplicity applies to the first two kinds."""

    kind: str
    multiplicity: int | None = None


@dataclass(frozen=True)
class FixedPointRecord:
    location: complex  # INF for the point at infinity
    multiplier: complex
    klass: str
    origin: Origin
    predicted: complex | None


def classify_multiplier(lam: complex) -> str:
    """Class of a fixed point with multiplier lam: superattracting below
    SUPERATTRACTING_TOL, indifferent within INDIFFERENCE_BAND of the unit
    circle, else attracting or repelling."""
    mag = abs(lam)
    if mag < SUPERATTRACTING_TOL:
        return SUPERATTRACTING
    if abs(mag - 1.0) <= INDIFFERENCE_BAND:
        # rational rotation number shows up as lam**q near 1 for small q
        power = lam / mag  # project onto the unit circle first
        acc = power
        for _ in range(64):
            if abs(acc - 1.0) <= 1e-6:
                return RATIONALLY_INDIFFERENT
            acc *= power
        return IRRATIONALLY_INDIFFERENT
    if mag < 1.0:
        return ATTRACTING
    return REPELLING


def classify_fixed_points(p: Polynomial, R: RationalMap) -> list[FixedPointRecord]:
    """Records for every sphere fixed point of R, a map built from p.

    Origins are read from p.roots and p.critical through matching_point.
    When R.method is 'halley', PropositionMismatch is raised if a measured
    multiplier strays more than PREDICTION_TOL from the value its origin
    predicts, or if a fixed point has no identifiable origin; other maps
    get predicted=None and may have origin 'other'.
    """
    halley = R.method == "halley"
    d = p.degree
    records = []
    for fp in fixed_points(R):
        lam = multiplier_at(R, fp)
        if is_infinity(fp):
            origin = Origin("infinity")
            predicted = complex((d + 1.0) / (d - 1.0)) if d >= 2 else None
        elif (rc := matching_point(fp, p.roots)) is not None:
            k = rc.multiplicity
            origin = Origin("root", k)
            predicted = complex((k - 1.0) / (k + 1.0))
        elif (cc := matching_point(fp, p.critical)) is not None:
            origin = Origin("critical", cc.multiplicity)
            predicted = complex(1.0 + 2.0 / cc.multiplicity)
        else:
            origin = Origin("other")
            predicted = None
        if not halley:
            predicted = None
        record = FixedPointRecord(
            location=fp,
            multiplier=lam,
            klass=classify_multiplier(lam),
            origin=origin,
            predicted=predicted,
        )
        if halley and origin.kind == "other":
            raise PropositionMismatch("fixed point with no identifiable origin", record)
        if predicted is not None and abs(lam - predicted) > PREDICTION_TOL:
            raise PropositionMismatch(
                f"multiplier {lam} disagrees with predicted {predicted}", record)
        records.append(record)
    return records


def extraneous_fixed_points(records: list[FixedPointRecord]) -> list[FixedPointRecord]:
    """Finite fixed points that are not roots of p."""
    return [r for r in records
            if not is_infinity(r.location) and r.origin.kind != "root"]
