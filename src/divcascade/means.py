"""The seven power-type means and their nonnegative differences.

The means are ordered pointwise for every a, b > 0:

    harmonic <= geometric <= Heronian <= arithmetic
             <= centroidal <= root-mean-square <= contraharmonic

so subtracting a later one from an earlier one is rejected.  Differences of
adjacent and non-adjacent means are the raw material for the divergence
cascade; scaled combinations of them reproduce the triangular and Hellinger
discriminations exactly, which ``verify_mean_identities`` checks pointwise
as the audit's ``analysis.Equality`` claims.
"""

from __future__ import annotations

from . import catalog
from .catalog import MEAN_LETTER, MEAN_ORDER, MEAN_TAGS

__all__ = ["mean", "mean_generator", "mean_difference",
           "verify_mean_identities", "MEAN_TAGS", "MEAN_ORDER"]


def _letter(kind: str) -> str:
    if kind in MEAN_TAGS:
        return kind
    if kind in MEAN_LETTER:
        return MEAN_LETTER[kind]
    raise KeyError(f"unknown mean {kind!r}; use a letter {MEAN_ORDER} "
                   f"or a tag like 'Arithmetic'")


def mean(kind: str, a, b):
    """Value of the named mean at a ``catalog.pair_or_arrays``."""
    import numpy as np
    letter = _letter(kind)
    a, b = catalog.pair_or_arrays(a, b)
    a = np.asarray(a, dtype=float) if isinstance(a, np.ndarray) else float(a)
    b = np.asarray(b, dtype=float) if isinstance(b, np.ndarray) else float(b)
    if letter == "H":
        return 2.0 * a * b / (a + b)
    if letter == "G":
        return np.sqrt(a * b)
    if letter == "N":
        return (a + np.sqrt(a * b) + b) / 3.0
    if letter == "A":
        return (a + b) / 2.0
    if letter == "R":
        return 2.0 * (a * a + a * b + b * b) / (3.0 * (a + b))
    if letter == "S":
        return np.sqrt((a * a + b * b) / 2.0)
    return (a * a + b * b) / (a + b)


def mean_generator(kind: str, x):
    """Normalized generator f_M with M(a,b) = b f_M(a/b); f_M(1) = 1."""
    return catalog.get(_letter(kind))(catalog.point(x))


def mean_difference(bigger: str, smaller: str, a, b):
    """Difference M_bigger - M_smaller, rejecting a mis-ordered request;
    a and b as for ``mean``."""
    hi, lo = _letter(bigger), _letter(smaller)
    if MEAN_ORDER.index(hi) <= MEAN_ORDER.index(lo):
        raise ValueError(
            f"{MEAN_TAGS[hi]} does not dominate {MEAN_TAGS[lo]}; "
            f"mean differences follow the order {MEAN_ORDER}")
    return catalog.get(f"D_{hi}{lo}").value(a, b)


# Identities tying scaled mean differences to the two discriminations, plus
# the fourteen linear relations among the means themselves.  Each entry is
# (identity id, lhs terms, rhs terms) with terms as (coefficient, symbol),
# symbols naming either a mean letter or a difference D_XY / base measure.
_IDENTITIES = [
    ("item1a", [(3, "D_CR")], [(1, "delta")]),
    ("item1b", [(2, "D_AH")], [(1, "delta")]),
    ("item1c", [(2, "D_CA")], [(1, "delta")]),
    ("item1d", [(1, "D_CH")], [(1, "delta")]),
    ("item1e", [(6, "D_RA")], [(1, "delta")]),
    ("item1f", [(1.5, "D_RH")], [(1, "delta")]),
    ("item2a", [(3, "D_AN")], [(1, "h")]),
    ("item2b", [(1, "D_AG")], [(1, "h")]),
    ("item2c", [(1.5, "D_NG")], [(1, "h")]),
    ("item3", [(1, "D_CG")], [(3, "D_RN")]),
    ("remark2_1a", [(4, "A")], [(2, "C"), (2, "H")]),
    ("remark2_1b", [(4, "A")], [(3, "R"), (1, "H")]),
    ("remark2_2a", [(3, "R")], [(1, "C"), (2, "A")]),
    ("remark2_2b", [(3, "R")], [(2, "C"), (1, "H")]),
    ("remark2_3", [(3, "N")], [(2, "A"), (1, "G")]),
    ("remark2_4", [(3, "C"), (2, "H")], [(3, "R"), (2, "A")]),
    ("remark2_5", [(1, "C"), (6, "A")], [(1, "H"), (6, "R")]),
    ("remark2_6", [(1, "C"), (3, "N")], [(1, "G"), (3, "R")]),
    ("remark2_7", [(3, "N"), (2, "A")], [(2, "C"), (2, "H"), (1, "G")]),
    ("remark2_8", [(27, "R"), (2, "G")], [(14, "A"), (9, "C"), (6, "N")]),
    ("remark2_9", [(3, "N"), (9, "R")], [(8, "A"), (3, "C"), (1, "G")]),
    ("remark2_10", [(3, "G"), (8, "H"), (9, "C")], [(3, "R"), (8, "A"), (9, "N")]),
    ("remark2_11", [(4, "G"), (14, "H"), (17, "C")], [(9, "R"), (14, "A"), (12, "N")]),
    ("remark2_12", [(5, "G"), (24, "H"), (31, "C")], [(21, "R"), (24, "A"), (15, "N")]),
]


def identity_table():
    """All identity rows as (id, lhs terms, rhs terms) triples."""
    return list(_IDENTITIES)


def verify_mean_identities(a, b):
    """Check the 24 mean identities of ``identity_table`` at one pair
    (a, b) of positive finite numbers; any other pair is a ValueError.

    Returns a list of (identity id, relative residual, passed) triples.
    The residual is the audit's ``analysis.Equality`` gap; "passed"
    means residual <= 1e-12.
    """
    from .analysis import Equality, Sample, claim_gaps
    gaps = claim_gaps([Equality(lhs, rhs) for _, lhs, rhs in _IDENTITIES],
                      Sample(*catalog.positive_pair((a, b))))
    resids = [float(gap[0]) for gap in gaps]
    return [(ident, resid, resid <= 1e-12)
            for (ident, _, _), resid in zip(_IDENTITIES, resids)]
