"""Parametric generating families and their exponential envelopes.

Six one-parameter families extend the base discriminations, each of them
lead * B^t (``catalog.FAMILY_FORMS``).  The paper prints three formulas
for each, all held here once as exact forms in u = sqrt(x) (``RatU``):

* the step ratio r_F that takes a member to the next, so that the
  series of members s + k weighted 1/k! sums to family(s) * exp(r_F),
  s the ``series_start`` (topsoe has no series);
* the convexity factorization f'' = P * B^t * A(t), with a palindromic
  witness A(t) = W0 + t W1 + t^2 W2 in u of nonnegative coefficients;
* the printed exponential display lead * exp(arg), verbatim.

The audit proves the first two for every t, as B == r_F and as one
identity per power of t, and ``display_is_series_limit`` compares each
display with the series limit; the float helpers evaluate the same forms.
"""

from __future__ import annotations

import math

from . import catalog
from .catalog import UM1, XM1SQ, XP1, positive_pair
from .ratfun import ONE, Poly, RatU, U, X

__all__ = [
    "family", "STEP_RATIOS", "step_ratio", "convexity_witness",
    "witness_fpp", "witness_second_derivative", "WITNESS_FORMS",
    "exp_series_partial", "exp_representation", "EXP_FORMS", "series_start",
    "display_is_series_limit",
]


def family(family_id: str, t: int, pair) -> float:
    """Value of one family member at a pair of positive reals."""
    return float(catalog.family_member(family_id, t)._at(*positive_pair(pair)))


_ROOT_STEP = RatU(UM1 * UM1, U)      # (sqrt a - sqrt b)^2 / sqrt(ab)
_SQUARE_STEP = RatU(XM1SQ, X)        # (a - b)^2 / (ab)

# Multiplying a family member by its step ratio gives the next member.  Each
# is written apart from the ratio of ``catalog.FAMILY_FORMS``, to be proved
# equal to it: by the audit's series rows, and for topsoe, which has no
# exponential series, by the tests.
STEP_RATIOS: dict[str, RatU] = {
    "Delta1": _ROOT_STEP, "K1": _ROOT_STEP, "Hgen": _ROOT_STEP,
    "Mnew": _ROOT_STEP, "Delta2": _SQUARE_STEP, "K2": _SQUARE_STEP,
    "Lt": RatU(XP1, 2 * U),          # (a + b) / (2 sqrt(ab))
    "topsoe": RatU(XM1SQ, XP1 ** 2),  # (a - b)^2 / (a + b)^2
}


def step_ratio(family_id: str, pair) -> float:
    """The constant ratio family(t+1) / family(t) at a fixed pair."""
    return _ratio(family_id, *positive_pair(pair))


def _ratio(family_id: str, a: float, b: float) -> float:
    if family_id not in STEP_RATIOS:
        raise KeyError(f"unknown family {family_id!r}")
    return STEP_RATIOS[family_id](a / b)


def _lead_and_ratio(family_id: str, pair) -> tuple[float, float]:
    """``family`` at ``series_start`` and ``step_ratio``; one pair check."""
    member = catalog.family_member(family_id, series_start(family_id))
    a, b = positive_pair(pair)
    return float(member._at(a, b)), _ratio(family_id, a, b)


# ---------------------------------------------------------------------------
# Convexity witnesses: f''(x) = prefactor(t) * A(t) with A > 0 for u > 0.
# Each entry holds a t-free P, the prefactor being P * B^t for the family's
# ratio B, and the witness A(t) = W0 + t W1 + t^2 W2 as (W0, W1, W2).  A
# printed variant, kept where it disagrees for the audit to flag, is a
# witness (W0, W1, W2) or a prefactor (P, B) of its own.

def _pal(*half) -> Poly:
    """Palindromic polynomial in u from its coefficients up to the middle."""
    return Poly(half + half[-2::-1])


WITNESS_FORMS: dict[str, dict] = {
    "Delta1": {"prefactor": RatU(ONE, 4 * X * X * XP1 ** 3),
               "witness": (_pal(0, 0, 0, 0, 32), _pal(2, 2, 12, 22, 20),
                           _pal(1, 4, 8, 12, 14)),
               "printed_witness": (_pal(0, 0, 0, 0, 64),
                                   _pal(2, 2, 12, 22, 40),
                                   _pal(1, 4, 8, 12, 28))},
    "Delta2": {"prefactor": RatU(ONE, XP1 ** 3 * X * X),
               "witness": (_pal(0, 0, 0, 0, 8), _pal(1, 0, 6, 0, 10),
                           _pal(1, 0, 4, 0, 6))},
    "K1": {"prefactor": RatU(ONE, 4 * X * X * U),
           "witness": (_pal(3, 0, 2), _pal(4, 6, 4), _pal(1, 4, 6))},
    "K2": {"prefactor": RatU(ONE, 4 * X * X * U),
           "witness": (_pal(3, 0, 2), _pal(8, 0, 8), _pal(4, 0, 8))},
    "Hgen": {"prefactor": RatU(ONE, 4 * U ** 5),
             "witness": (U * _pal(0, 2), U * _pal(2, 2), U * _pal(1, 2))},
    "Mnew": {"prefactor": RatU(UM1 * UM1, 4 * XP1 ** 3 * U ** 5),
             "witness": (U * _pal(0, 4, 8, 24), U * _pal(2, 6, 14, 12),
                         U * _pal(1, 2, 3, 4)),
             "printed_prefactor": (RatU(XM1SQ, 4 * XP1 ** 3 * U ** 5),
                                   (XM1SQ, U))},
}


def _factorization(family_id: str, t, printed: bool):
    """(t, P, ratio B as (num, den), A(t)) for member t of a family."""
    try:
        form = WITNESS_FORMS[family_id]
    except KeyError:
        raise KeyError(f"unknown family {family_id!r}") from None
    t = catalog.family_t(family_id, t)
    pref, ratio = form["prefactor"], catalog.FAMILY_FORMS[family_id][1]
    wit = form["witness"]
    if printed:
        pref, ratio = form.get("printed_prefactor", (pref, ratio))
        wit = form.get("printed_witness", wit)
    w0, w1, w2 = wit
    return t, pref, ratio, w0 + w1 * t + w2 * (t * t)


def convexity_witness(family_id: str, x, t: int) -> float:
    """The positivity witness A_k(x, t) for a family, derived form."""
    return RatU(_factorization(family_id, t, False)[3])(catalog.point(x))


def witness_fpp(family_id: str, t: int, printed: bool = False) -> RatU:
    """Exact f'' of member t as the factorization P * B^t * A(t).

    With printed=True the verbatim published variant is used where it
    differs (the Delta1 witness coefficient and the Mnew prefactor); the
    audit proves the derived form equal to the member's second
    derivative for every t and the printed one unequal.
    """
    t, pref, (num, den), wit = _factorization(family_id, t, printed)
    return pref * RatU(num ** t, den ** t) * RatU(wit)


def witness_second_derivative(family_id: str, x, t: int,
                              printed: bool = False) -> float:
    """f'' reconstructed from the factorization prefactor * witness."""
    return witness_fpp(family_id, t, printed)(catalog.point(x))


# ---------------------------------------------------------------------------
# Exponential representations.

def series_start(family_id: str) -> int:
    """First t of a family's exponential series: 0, or -1 for the ladder
    Lt, whose closed form sums L_t / (t+1)! from t = -1 (erratum E19).
    topsoe, which has no series, and an unknown id raise ``KeyError``."""
    if family_id not in EXP_FORMS:
        catalog.family_range(family_id)     # an unknown id's KeyError
        raise KeyError(f"family {family_id!r} has no exponential series")
    return -1 if family_id == "Lt" else 0


def exp_series_partial(family_id: str, pair, n: int) -> float:
    """Partial sum sum_{k=0}^{n-s} family(s + k, pair) / k!, s the
    ``series_start``, for an integer n >= s.

    Terms are built incrementally (multiply by ratio / (k+1)), which
    avoids factorial overflow.  The loop stops once a term is 0, as every
    later one is, or the sum is inf or NaN, as it then stays: the bits
    are those of all n - s steps, and a large n costs only the terms that
    count.
    """
    start = series_start(family_id)
    last = catalog.index("n", n, start)
    term, r = _lead_and_ratio(family_id, pair)
    total = term
    for k in range(last - start):
        if term == 0.0 or not math.isfinite(total):
            break
        term *= r / (k + 1)
        total += term
    return float(total)


def _times_exp(lead: float, arg: float) -> float:
    """lead * exp(arg), through logs past exp's range; +inf on overflow."""
    try:
        return float(lead * math.exp(arg))
    except OverflowError:
        pass
    try:
        return math.exp(math.log(lead) + arg)
    except OverflowError:
        return math.inf


def exp_representation(family_id: str, pair) -> float:
    """The series' sum: family(s) * exp(step ratio), s the ``series_start``."""
    return _times_exp(*_lead_and_ratio(family_id, pair))


# Printed exponential displays E_F = lead * exp(arg), kept verbatim; the
# audit reports each series under its "ref".  A printed formula of (a, b),
# homogeneous of degree d, is held as (d, g) with value b**d * g(a/b).
# The display is the series limit when its lead is (1, family(s)), s the
# ``series_start``, and its argument is (0, step ratio).
_SQ = RatU(UM1 * UM1)                # (sqrt a - sqrt b)^2
_DELTA = RatU(XM1SQ, XP1)            # (a - b)^2 / (a + b)
_SQ_OVER_G = RatU(XM1SQ, U)          # (a - b)^2 / sqrt(ab)

EXP_FORMS: dict[str, dict] = {
    "Delta1": {"printed_lead": (1, _DELTA),
               "printed_arg": (1, _SQ_OVER_G), "ref": "Eq (51)-(52)"},
    "Delta2": {"printed_lead": (1, _DELTA),
               "printed_arg": (0, _SQUARE_STEP), "ref": "Sec 3.2"},
    "K1": {"printed_lead": (0, _ROOT_STEP),
           "printed_arg": (1, _SQ_OVER_G), "ref": "Sec 3.3"},
    "K2": {"printed_lead": (1, _SQ_OVER_G),
           "printed_arg": (0, _SQUARE_STEP), "ref": "Sec 3.4"},
    "Hgen": {"printed_lead": (1, _SQ),
             "printed_arg": (0, _ROOT_STEP), "ref": "Sec 3.5"},
    "Mnew": {"printed_lead": (3, RatU(XM1SQ * XM1SQ, XP1)),   # (a-b)^4/(a+b)
             "printed_arg": (0, _ROOT_STEP), "ref": "Sec 3.6"},
    "Lt": {"printed_lead": (1, 2 * _DELTA),
           "printed_arg": (0, RatU(XP1, 2 * U)), "ref": "Eq (58)"},
}


def display_is_series_limit(family_id: str) -> bool:
    """Whether the printed display is exactly lead * exp(step ratio)."""
    lead = catalog.family_gen(family_id, series_start(family_id))
    form = EXP_FORMS[family_id]
    return (form["printed_lead"] == (1, lead)
            and form["printed_arg"] == (0, STEP_RATIOS[family_id]))
