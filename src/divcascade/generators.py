"""Parametric generating families and their exponential envelopes.

Six one-parameter families extend the base discriminations.  The paper
prints three formulas for each, and all of them are held here once, as
exact forms in u = sqrt(x) (``RatU``):

* the step ratio r_F that takes a member to the next, so that the
  1/t!-weighted series of members sums to lead * exp(r_F);
* the convexity factorization f'' = prefactor(t) * A(t), with a
  palindromic witness polynomial A in u that is positive for u > 0;
* the printed exponential display lead * exp(arg), verbatim.

The audit proves the step ratios and the factorizations against the
catalog's generators, and ``display_is_series_limit`` compares each
display with the series limit; the float helpers below evaluate the
same forms.
"""

from __future__ import annotations

import math

from . import catalog
from .catalog import UM1, XM1, XM1SQ, XP1, family_range, positive_pair
from .ratfun import ONE, Poly, RatU, U, X

__all__ = [
    "family", "STEP_RATIOS", "step_ratio", "convexity_witness",
    "witness_fpp", "witness_second_derivative", "WITNESS_FORMS",
    "exp_series_partial", "exp_representation", "exp_L_representation",
    "exp_L_series_partial", "EXP_FORMS", "series_start",
    "display_is_series_limit",
]


def family(family_id: str, t: int, pair) -> float:
    """Value of one family member at a pair of positive reals."""
    a, b = positive_pair(pair)
    lo, hi = family_range(family_id)
    if not lo <= t <= hi:
        raise ValueError(f"{family_id} index t must be in [{lo}, {hi}], "
                         f"got {t}")
    return float(catalog.get(f"{family_id}:{t}").value(a, b))


_ROOT_STEP = RatU(UM1 * UM1, U)      # (sqrt a - sqrt b)^2 / sqrt(ab)
_SQUARE_STEP = RatU(XM1SQ, X)        # (a - b)^2 / (ab)

# Multiplying a family member by its step ratio gives the next member.  A
# ratio of two members depends on x = a/b alone, so each is a plain RatU.
STEP_RATIOS: dict[str, RatU] = {
    "Delta1": _ROOT_STEP, "K1": _ROOT_STEP, "Hgen": _ROOT_STEP,
    "Mnew": _ROOT_STEP, "Delta2": _SQUARE_STEP, "K2": _SQUARE_STEP,
    "Lt": RatU(XP1, 2 * U),          # (a + b) / (2 sqrt(ab))
}


def step_ratio(family_id: str, pair) -> float:
    """The constant ratio family(t+1) / family(t) at a fixed pair."""
    a, b = positive_pair(pair)
    try:
        ratio = STEP_RATIOS[family_id]
    except KeyError:
        raise KeyError(f"unknown family {family_id!r}") from None
    return ratio(a / b)


# ---------------------------------------------------------------------------
# Convexity witnesses: f''(x) = prefactor(t) * A(t) with A > 0 for u > 0.
# Each entry maps t to an exact form: the prefactor to a RatU, the witness
# to a Poly in u.  Printed variants are kept only where they disagree with
# the derived forms, for the audit to flag.

def _wf(pref, wit, printed_wit=None, printed_pref=None):
    return {"prefactor": pref, "witness": wit,
            "printed_witness": printed_wit, "printed_prefactor": printed_pref}


def _pal(*half) -> Poly:
    """Palindromic polynomial in u from its coefficients up to the middle."""
    return Poly(half + half[-2::-1])


def _a1(t, lead=2):
    return _pal(t * (t + 2), 2 * t * (2 * t + 1), 4 * t * (2 * t + 3),
                2 * t * (6 * t + 11), lead * (7 * t * t + 10 * t + 16))


WITNESS_FORMS: dict[str, dict] = {
    "Delta1": _wf(
        lambda t: RatU(UM1 ** (2 * t), (4 * X * X * XP1 ** 3).shift(t)),
        _a1,
        printed_wit=lambda t: _a1(t, lead=4)),
    "Delta2": _wf(
        lambda t: RatU(XM1 ** (2 * t), XP1 ** 3 * X ** (t + 2)),
        lambda t: _pal(t * (t + 1), 0, 2 * t * (2 * t + 3), 0,
                       2 * (3 * t * t + 5 * t + 4))),
    "K1": _wf(
        lambda t: RatU(UM1 ** (2 * t), (4 * X * X).shift(t + 1)),
        lambda t: _pal((t + 1) * (t + 3), 2 * t * (2 * t + 3),
                       2 * (3 * t * t + 2 * t + 1))),
    "K2": _wf(
        lambda t: RatU(XM1 ** (2 * t), (4 * X * X).shift(2 * t + 1)),
        lambda t: _pal((2 * t + 1) * (2 * t + 3), 0, 2 * (2 * t + 1) ** 2)),
    "Hgen": _wf(
        lambda t: RatU(UM1 ** (2 * t), (4 * ONE).shift(t + 5)),
        lambda t: U * _pal(t * (t + 2), 2 * (t * t + t + 1))),
    "Mnew": _wf(
        lambda t: RatU(UM1 ** (2 * t + 2), (4 * XP1 ** 3).shift(t + 5)),
        lambda t: U * _pal(t * (t + 2), 2 * (t * t + 3 * t + 2),
                           3 * t * t + 14 * t + 8, 4 * (t * t + 3 * t + 6)),
        printed_pref=lambda t: RatU(XM1 ** (2 * t + 2),
                                    (4 * XP1 ** 3).shift(t + 5))),
}


def convexity_witness(family_id: str, x, t: int) -> float:
    """The positivity witness A_k(x, t) for a family, derived form."""
    try:
        form = WITNESS_FORMS[family_id]
    except KeyError:
        raise KeyError(f"unknown family {family_id!r}") from None
    if t < 0:
        raise ValueError("witness index t must be nonnegative")
    return RatU(form["witness"](t))(x)


def witness_fpp(family_id: str, t: int, printed: bool = False) -> RatU:
    """Exact f'' of member t as the factorization prefactor * witness.

    With printed=True the verbatim published variant is used where it
    differs (the Delta1 witness coefficient and the Mnew prefactor); the
    audit proves the derived form equal to the member's second
    derivative and the printed one unequal.
    """
    form = WITNESS_FORMS[family_id]
    pref, wit = form["prefactor"], form["witness"]
    if printed:
        pref = form["printed_prefactor"] or pref
        wit = form["printed_witness"] or wit
    return pref(t) * RatU(wit(t))


def witness_second_derivative(family_id: str, x, t: int,
                              printed: bool = False) -> float:
    """f'' reconstructed from the factorization prefactor * witness."""
    return witness_fpp(family_id, t, printed)(x)


# ---------------------------------------------------------------------------
# Exponential representations.

def series_start(family_id: str) -> int:
    """First member of the series: t = 0, or t = -1 for the ladder Lt.

    The ladder's closed form sums L_t / (t+1)! from t = -1 (erratum E19).
    """
    return -1 if family_id == "Lt" else 0


def _series_partial(family_id: str, start: int, last: int, pair) -> float:
    """sum_{k=0}^{last-start} family(start + k, pair) / k!.

    Terms are built incrementally (multiply by ratio / (k+1)), which
    avoids factorial overflow and stays within the family's t cap.
    """
    term = family(family_id, start, pair)
    r = step_ratio(family_id, pair)
    total = term
    for k in range(last - start):
        term *= r / (k + 1)
        total += term
    return float(total)


def exp_series_partial(family_id: str, pair, n: int) -> float:
    """Partial sum sum_{t=0}^{n} family(t, pair) / t!."""
    if n < 0:
        raise ValueError("term count n must be nonnegative")
    return _series_partial(family_id, 0, n, pair)


def exp_representation(family_id: str, pair) -> float:
    """Closed form of the full series: family(0) * exp(step ratio)."""
    lead = family(family_id, 0, pair)
    return float(lead * math.exp(step_ratio(family_id, pair)))


def exp_L_representation(pair) -> float:
    """Closed form 2*Delta * exp((a+b) / (2*sqrt(ab))).

    This is the envelope of the ladder family: its step ratio is
    (a+b)/(2 sqrt(ab)) and the series that converges to this form starts
    one rung below zero, at the member L_{-1} = 2*Delta; see
    exp_L_series_partial.
    """
    lead = family("Lt", -1, pair)
    return float(lead * math.exp(step_ratio("Lt", pair)))


def exp_L_series_partial(pair, n: int, offset: bool = True) -> float:
    """Partial sums of the ladder series.

    With offset=True (the reading that reproduces the closed form) the
    sum is sum_{t=-1}^{n} L_t / (t+1)!.  With offset=False it is the
    naive sum_{t=0}^{n} L_t / t!, which converges to K * exp(r) instead;
    both are exposed so the audit can report which reading holds.
    """
    if n < -1:
        raise ValueError("term count must be >= -1")
    return _series_partial("Lt", -1 if offset else 0, n, pair)


# Printed exponential displays E_F = lead * exp(arg), kept verbatim; the
# audit reports each series under its "ref".  A printed formula of (a, b), homogeneous of degree d, is held as
# (d, g) with value b**d * g(a/b).  The display is the series limit when
# its lead is (1, family(start)) and its argument is (0, step ratio).
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
    form = EXP_FORMS[family_id]
    lead = catalog.family_gen(family_id, series_start(family_id))
    return (form["printed_lead"] == (1, lead)
            and form["printed_arg"] == (0, STEP_RATIOS[family_id]))
