"""Base discrimination measures and the generalized triangular families.

Six base measures drive everything downstream: the triangular
discrimination delta, Hellinger's h, the Jain-Srivastava measure K, the
symmetric chi-square psi, the Kumar-Johnson measure F, and the
cubic-weight measure L.  All six are instances (up to scale) of one
family

    L_t(a, b) = (a - b)^2 (a + b)^t / (2^t (ab)^((t+1)/2)),  t integer,

which is nondecreasing in t and convex in (a, b) for every t >= -1.
A second parametric family generalizes delta in the probability setting:
Topsoe's sum of (p_i - q_i)^(2t) / (p_i + q_i)^(2t-1).
"""

from __future__ import annotations

import numpy as np

from . import catalog, distributions
from .catalog import LT_T_RANGE, positive_pair
from .ratfun import Poly, RatU

__all__ = ["base", "base_ids", "L_t", "A7", "A7_poly", "topsoe_delta",
           "LT_T_RANGE"]


def base_ids() -> tuple[str, ...]:
    return catalog.BASE_IDS


def base(measure_id: str, a, b):
    """Value of a base measure (delta, h, K, psi, F, L) at a, b > 0."""
    if measure_id not in catalog.BASE_IDS:
        raise KeyError(f"unknown base measure {measure_id!r}; "
                       f"expected one of {catalog.BASE_IDS}")
    return catalog.get(measure_id)._at(*positive_pair((a, b)))


def L_t(t: int, pair):
    """The t-th member of the unifying family at a positive pair.

    Accepts any integer t in the implemented window (a float or numpy
    number only when its value is an integer); the particular cases
    t = -1, 0, 1, 2, 3 reproduce 2*delta, K, psi/2, F/2 and L/8.  A pair
    that is not positive and finite raises ValueError.
    """
    return catalog.family_member("Lt", t)._at(*positive_pair(pair))


def A7_poly(t: int) -> Poly:
    """The convexity polynomial A7 of the L_t family, exact in u = sqrt(x),
    for a member t of the family."""
    t = catalog.family_t("Lt", t)
    ends, inner = (t + 1) * (t + 3), 4 * (2 - t) * (t + 1)
    return Poly([ends, 0, inner, 0, 2 * (3 * t - 5) * (t - 1), 0, inner, 0,
                 ends])


def A7(x, t: int):
    """Convexity polynomial of the L_t family.

    f''_{L_t}(x) = (x+1)^(t-2) / (2^(t+2) x^2 (sqrt x)^(t+1)) * A7(x, t),
    so positivity of A7 certifies convexity.  A7(1, t) = 32 for every t.
    """
    return RatU(A7_poly(t))(catalog.point(x))


def topsoe_delta(t: int, p, q):
    """Generalized triangular discrimination of order t in 1..64.

    Sum over components of (p_i - q_i)^(2t) / (p_i + q_i)^(2t - 1).
    Order 1 is the ordinary triangular discrimination.  p and q must
    validate as probability vectors (``distributions.validate``).
    """
    t = catalog.family_t("topsoe", t)
    p = distributions.validate(p).as_array()
    q = distributions.validate(q).as_array()
    if p.shape != q.shape:
        raise ValueError("distributions must have matching shapes")
    d = p - q
    s = p + q
    return float(np.sum(d ** (2 * t) / s ** (2 * t - 1)))
