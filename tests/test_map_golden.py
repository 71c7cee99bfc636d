"""Golden digests of reduced map coefficients: they must not move.

Each digest is the sha256 of the num and den coefficient bytes (complex128,
ascending) of halley_of and konig_of(p, 3), polynomial by polynomial, over
the acceptance battery's polynomials and the two benchmark renders.  Any
change to how the raw products are formed or how their common factors
are cancelled shows up here, down to the last bit.
"""

import hashlib

import numpy as np
import pytest

from halleydyn.acceptance import CORPUS_SEED, random_corpus
from halleydyn.polycore import Polynomial
from halleydyn.ratmap import halley_of, konig_of


def _z_zn(n):
    return Polynomial.make([0, -1] + [0] * (n - 1) + [1])


GROUPS = {
    # E2 and E3's corpus at seed 0: mixed multiplicities 1 to 3
    "e2-corpus": lambda: random_corpus(50, seed=CORPUS_SEED),
    # E1: (z^2 - 1)^k for k = 1, 2, 3
    "e1": lambda: [Polynomial.make(c) for c in
                   ([-1, 0, 1], [1, 0, -2, 0, 1], [-1, 0, 3, 0, -3, 0, 1])],
    "e5": lambda: [Polynomial.make(c) for c in
                   ([-1, 0, 0, 1], [0, -1, 0, 1], [0, -1, 0, 0, 1], [0, 0, -1, 0, 1])],
    "e6": lambda: [_z_zn(7), _z_zn(9)],
    # the benchmark renders: z(z^7 - 1) and z^3 + 6z + b at the cycle parameter
    "renders": lambda: [_z_zn(7), Polynomial.make([62.5144396, 6, 0, 1])],
}

DIGESTS = {
    ("halley", "e2-corpus"):
        "46cc19bd0de5b2e523d31ac0ff35dc81d9fc793c0559aca0fb205a09f2ad8d46",
    ("halley", "e1"):
        "696476d8fd6fee16e507b9d8f2ded4bc1944184abd39e46311c9c5d279d7ec3c",
    ("halley", "e5"):
        "17dc6be72dde9089a5823732f7264f99447ec14ebfccb2033e235cb29fac1caa",
    ("halley", "e6"):
        "0d95eccfc89de698fa13129dc46ac1e2e29979fe7d4d45aedda7b898ee29a94e",
    ("halley", "renders"):
        "513b619f359bde0b2e41ae700a5c8576a1bcde495930dc7bcf26552ed6ce2fc2",
    ("konig3", "e2-corpus"):
        "46cc19bd0de5b2e523d31ac0ff35dc81d9fc793c0559aca0fb205a09f2ad8d46",
    ("konig3", "e1"):
        "696476d8fd6fee16e507b9d8f2ded4bc1944184abd39e46311c9c5d279d7ec3c",
    ("konig3", "e5"):
        "17dc6be72dde9089a5823732f7264f99447ec14ebfccb2033e235cb29fac1caa",
    ("konig3", "e6"):
        "0d95eccfc89de698fa13129dc46ac1e2e29979fe7d4d45aedda7b898ee29a94e",
    ("konig3", "renders"):
        "513b619f359bde0b2e41ae700a5c8576a1bcde495930dc7bcf26552ed6ce2fc2",
}

BUILD = {"halley": halley_of, "konig3": lambda p: konig_of(p, 3)}


def coefficient_digest(maps) -> str:
    h = hashlib.sha256()
    for R in maps:
        h.update(np.asarray(R.num.coeffs, dtype=np.complex128).tobytes())
        h.update(np.asarray(R.den.coeffs, dtype=np.complex128).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("method,group", sorted(DIGESTS))
def test_map_coefficients_match_golden(method, group):
    maps = [BUILD[method](p) for p in GROUPS[group]()]
    assert coefficient_digest(maps) == DIGESTS[method, group]
