"""Reference values computed from first principles.

Means and base discriminations are written out here from their
definitions, independently of the program's catalog.  At a perfect-square
ratio x = u^2 with rational u they are exact Fractions; the square-root
mean S is irrational there, so S and the six differences involving it are
evaluated in mpmath at 50 digits.  Every value is the generator f at
x = a/b; a measure's value is b * f(a/b).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DPS = 50

# f(x) for the six rational means, with u = sqrt(x).
MEANS = {
    "H": lambda u: 2 * u**2 / (u**2 + 1),
    "G": lambda u: u,
    "N": lambda u: (u**2 + u + 1) / 3,
    "A": lambda u: (u**2 + 1) / 2,
    "R": lambda u: 2 * (u**4 + u**2 + 1) / (3 * (u**2 + 1)),
    "C": lambda u: (u**4 + 1) / (u**2 + 1),
}

BASE = {
    "delta": lambda u: (u**2 - 1)**2 / (u**2 + 1),
    "h": lambda u: (u - 1)**2 / 2,
    "K": lambda u: (u**2 - 1)**2 / u,
    "psi": lambda u: (u**2 - 1)**2 * (u**2 + 1) / u**2,
    "F": lambda u: (u**4 - 1)**2 / (2 * u**3),
    "L": lambda u: (u**2 - 1)**2 * (u**2 + 1)**3 / u**4,
}


def _exact(measure_id: str):
    """First-principles generator in exact arithmetic, or None."""
    if measure_id in MEANS:
        return MEANS[measure_id]
    if measure_id in BASE:
        return BASE[measure_id]
    if measure_id.startswith("D_") and len(measure_id) == 4:
        hi, lo = measure_id[2], measure_id[3]
        if hi in MEANS and lo in MEANS:
            return lambda u: MEANS[hi](u) - MEANS[lo](u)
    return None


def _with_s(measure_id: str):
    """Generator involving the square-root mean, evaluated in mpmath."""
    def s(u):
        return mp.sqrt((u**4 + 1) / 2)

    if measure_id == "S":
        return s
    if measure_id.startswith("D_S") and len(measure_id) == 4:
        lo = MEANS[measure_id[3]]
        return lambda u: s(u) - lo(u)
    if measure_id.startswith("D_") and measure_id[3:] == "S":
        hi = MEANS[measure_id[2]]
        return lambda u: hi(u) - s(u)
    return None


def generator(measure_id: str):
    """(f, kind) with kind "exact" or "mp", or (None, None)."""
    f = _exact(measure_id)
    if f is not None:
        return f, "exact"
    f = _with_s(measure_id)
    if f is not None:
        return f, "mp"
    return None, None


def sqrt_exact(x: Fraction) -> Fraction:
    """Square root of a perfect-square rational."""
    from math import isqrt

    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect-square rational")
    return Fraction(rn, rd)


def mp_eval(f, u: Fraction):
    with mp.workdps(DPS):
        return f(mp.mpf(u.numerator) / u.denominator)


def scale(weight: Fraction, value):
    """weight * value, in mpmath when value is a 50-digit number."""
    if isinstance(value, Fraction):
        return weight * value
    with mp.workdps(DPS):
        return mp.mpf(weight.numerator) / weight.denominator * value


def to_float(value) -> float:
    """Nearest double to an exact or 50-digit value; +-inf past the range."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")
