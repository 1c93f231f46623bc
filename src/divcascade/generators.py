"""Parametric generating families and their exponential envelopes.

Six one-parameter families extend the base discriminations.  Each comes
with a positivity witness A_k(x, t) certifying convexity through the
factorization f'' = prefactor * A_k, and with an exponential closed form
that the factorial-weighted series of family members converges to.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from . import catalog
from .catalog import FAMILY_IDS, family_range, positive_pair

__all__ = [
    "family", "step_ratio", "convexity_witness", "witness_second_derivative",
    "WITNESS_FORMS", "exp_series_partial", "exp_representation",
    "exp_L_representation", "exp_L_series_partial", "EXP_FORMS",
]


def family(family_id: str, t: int, pair) -> float:
    """Value of one family member at a pair of positive reals."""
    a, b = positive_pair(pair)
    lo, hi = family_range(family_id)
    if not lo <= t <= hi:
        raise ValueError(f"{family_id} index t must be in [{lo}, {hi}], "
                         f"got {t}")
    return float(catalog.get(f"{family_id}:{t}").value(a, b))


# Multiplying a family member by its step ratio gives the next member.
_STEP_RATIOS: dict[str, Callable] = {
    "Delta1": lambda a, b: (np.sqrt(a) - np.sqrt(b)) ** 2 / np.sqrt(a * b),
    "K1": lambda a, b: (np.sqrt(a) - np.sqrt(b)) ** 2 / np.sqrt(a * b),
    "Hgen": lambda a, b: (np.sqrt(a) - np.sqrt(b)) ** 2 / np.sqrt(a * b),
    "Mnew": lambda a, b: (np.sqrt(a) - np.sqrt(b)) ** 2 / np.sqrt(a * b),
    "Delta2": lambda a, b: (a - b) ** 2 / (a * b),
    "K2": lambda a, b: (a - b) ** 2 / (a * b),
    "Lt": lambda a, b: (a + b) / (2 * np.sqrt(a * b)),
}


def step_ratio(family_id: str, pair) -> float:
    """The constant ratio family(t+1) / family(t) at a fixed pair."""
    a, b = positive_pair(pair)
    try:
        return float(_STEP_RATIOS[family_id](a, b))
    except KeyError:
        raise KeyError(f"unknown family {family_id!r}") from None


# ---------------------------------------------------------------------------
# Convexity witnesses: f''(x) = prefactor(x, t) * A(x, t) with A > 0.
# Stored per family as (prefactor, witness, printed_witness_or_None,
# printed_prefactor_or_None); printed variants are kept only where they
# disagree with the derived forms, for the audit to flag.

def _wf(pref, wit, printed_wit=None, printed_pref=None):
    return {"prefactor": pref, "witness": wit,
            "printed_witness": printed_wit, "printed_prefactor": printed_pref}


def _a1(x, t, lead=2):
    u = np.sqrt(x)
    return (t * (t + 2) * (x ** 4 + 1) + 2 * t * (2 * t + 1) * u * (x ** 3 + 1)
            + 4 * t * (2 * t + 3) * x * (x * x + 1)
            + lead * (7 * t * t + 10 * t + 16) * x * x
            + 2 * t * (6 * t + 11) * x * u * (x + 1))


def _a6(x, t):
    u = np.sqrt(x)
    return (2 * (t * t + 3 * t + 2) * x * (x * x + 1)
            + 4 * (t * t + 3 * t + 6) * x * x
            + t * (t + 2) * u * (x ** 3 + 1)
            + (3 * t * t + 14 * t + 8) * x * u * (x + 1))


WITNESS_FORMS: dict[str, dict] = {
    "Delta1": _wf(
        lambda x, t: (np.sqrt(x) - 1) ** (2 * t)
        / (4 * x * x * (x + 1) ** 3 * np.sqrt(x) ** t),
        _a1,
        printed_wit=lambda x, t: _a1(x, t, lead=4)),
    "Delta2": _wf(
        lambda x, t: (x - 1) ** (2 * t) / ((x + 1) ** 3 * x ** (t + 2)),
        lambda x, t: (t * (t + 1) * (x ** 4 + 1)
                      + 2 * t * (2 * t + 3) * x * (x * x + 1)
                      + 2 * (3 * t * t + 5 * t + 4) * x * x)),
    "K1": _wf(
        lambda x, t: (np.sqrt(x) - 1) ** (2 * t)
        / (4 * x * x * np.sqrt(x) ** (t + 1)),
        lambda x, t: ((t + 1) * (t + 3) * (x * x + 1)
                      + 2 * t * (2 * t + 3) * np.sqrt(x) * (x + 1)
                      + 2 * (3 * t * t + 2 * t + 1) * x)),
    "K2": _wf(
        lambda x, t: (x - 1) ** (2 * t) / (4 * x * x * np.sqrt(x) ** (2 * t + 1)),
        lambda x, t: (2 * t + 1) * (2 * t * x * x + 3 * x * x
                                    + 2 * (2 * t + 1) * x + 2 * t + 3)),
    "Hgen": _wf(
        lambda x, t: (np.sqrt(x) - 1) ** (2 * t) / (4 * np.sqrt(x) ** (t + 5)),
        lambda x, t: (t * (t + 2) * np.sqrt(x) * (x + 1)
                      + 2 * (t * t + t + 1) * x)),
    "Mnew": _wf(
        lambda x, t: (np.sqrt(x) - 1) ** (2 * t + 2)
        / (4 * (x + 1) ** 3 * np.sqrt(x) ** (t + 5)),
        _a6,
        printed_pref=lambda x, t: (x - 1) ** (2 * t + 2)
        / (4 * (x + 1) ** 3 * np.sqrt(x) ** (t + 5))),
}


def convexity_witness(family_id: str, x, t: int) -> float:
    """The positivity witness A_k(x, t) for a family, derived form."""
    try:
        form = WITNESS_FORMS[family_id]
    except KeyError:
        raise KeyError(f"unknown family {family_id!r}") from None
    if t < 0:
        raise ValueError("witness index t must be nonnegative")
    return form["witness"](np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x), t)


def witness_second_derivative(family_id: str, x, t: int,
                              printed: bool = False) -> float:
    """f'' reconstructed from the factorization prefactor * witness.

    With printed=True the verbatim published variant is used where it
    differs (the Delta1 witness coefficient and the Mnew prefactor); the
    audit compares the two against the exact rational second derivative.
    """
    form = WITNESS_FORMS[family_id]
    pref = form["prefactor"]
    wit = form["witness"]
    if printed:
        pref = form["printed_prefactor"] or pref
        wit = form["printed_witness"] or wit
    xv = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
    return pref(xv, t) * wit(xv, t)


# ---------------------------------------------------------------------------
# Exponential representations.

def exp_series_partial(family_id: str, pair, n: int) -> float:
    """Partial sum sum_{t=0}^{n} family(t, pair) / t!.

    Terms are built incrementally (multiply by ratio / (t+1)), which
    avoids factorial overflow and stays within the family's t cap.
    """
    if n < 0:
        raise ValueError("term count n must be nonnegative")
    a, b = positive_pair(pair)
    term = family(family_id, 0, pair)
    r = step_ratio(family_id, pair)
    total = term
    for t in range(n):
        term *= r / (t + 1)
        total += term
    return float(total)


def exp_representation(family_id: str, pair) -> float:
    """Closed form of the full series: family(0) * exp(step ratio)."""
    lead = family(family_id, 0, pair)
    return float(lead * math.exp(step_ratio(family_id, pair)))


def exp_L_representation(pair) -> float:
    """Closed form 2*Delta * exp((a+b) / (2*sqrt(ab))).

    This is the envelope of the ladder family: its step ratio is
    (a+b)/(2 sqrt(ab)) and the series that converges to this form starts
    one rung below zero, at the member equal to 2*Delta; see
    exp_L_series_partial.
    """
    a, b = positive_pair(pair)
    lead = 2 * (a - b) ** 2 / (a + b)
    return float(lead * math.exp((a + b) / (2 * np.sqrt(a * b))))


def exp_L_series_partial(pair, n: int, offset: bool = True) -> float:
    """Partial sums of the ladder series.

    With offset=True (the reading that reproduces the closed form) the
    sum is sum_{t=-1}^{n} L_t / (t+1)!.  With offset=False it is the
    naive sum_{t=0}^{n} L_t / t!, which converges to K * exp(r) instead;
    both are exposed so the audit can report which reading holds.
    """
    if n < -1:
        raise ValueError("term count must be >= -1")
    a, b = positive_pair(pair)
    r = step_ratio("Lt", pair)
    if offset:
        term = 2 * (a - b) ** 2 / (a + b)  # the t = -1 member
        start = -1
    else:
        term = (a - b) ** 2 / np.sqrt(a * b)  # the t = 0 member, K
        start = 0
    total = term
    for k, _ in enumerate(range(start, n)):
        term *= r / (k + 1)
        total += term
    return float(total)


# Printed exponential displays, kept verbatim for the audit.  Each entry:
# (printed leading factor, printed exponent argument, series-consistent
# leading factor, series-consistent exponent argument), all as callables
# of (a, b).  Where printed == consistent the audit confirms the display.
def _sq(a, b):
    return (np.sqrt(a) - np.sqrt(b)) ** 2


EXP_FORMS: dict[str, dict] = {
    "Delta1": {
        "printed_lead": lambda a, b: (a - b) ** 2 / (a + b),
        "printed_arg": lambda a, b: (a - b) ** 2 / np.sqrt(a * b),
        "lead": lambda a, b: (a - b) ** 2 / (a + b),
        "arg": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "ref": "Eq (51)-(52)",
    },
    "Delta2": {
        "printed_lead": lambda a, b: (a - b) ** 2 / (a + b),
        "printed_arg": lambda a, b: (a - b) ** 2 / (a * b),
        "lead": lambda a, b: (a - b) ** 2 / (a + b),
        "arg": lambda a, b: (a - b) ** 2 / (a * b),
        "ref": "Sec 3.2",
    },
    "K1": {
        "printed_lead": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "printed_arg": lambda a, b: (a - b) ** 2 / np.sqrt(a * b),
        "lead": lambda a, b: (a - b) ** 2 / np.sqrt(a * b),
        "arg": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "ref": "Sec 3.3",
    },
    "K2": {
        "printed_lead": lambda a, b: (a - b) ** 2 / np.sqrt(a * b),
        "printed_arg": lambda a, b: (a - b) ** 2 / (a * b),
        "lead": lambda a, b: (a - b) ** 2 / np.sqrt(a * b),
        "arg": lambda a, b: (a - b) ** 2 / (a * b),
        "ref": "Sec 3.4",
    },
    "Hgen": {
        "printed_lead": _sq,
        "printed_arg": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "lead": _sq,
        "arg": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "ref": "Sec 3.5",
    },
    "Mnew": {
        "printed_lead": lambda a, b: (a - b) ** 4 / (a + b),
        "printed_arg": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "lead": lambda a, b: _sq(a, b) ** 2 / (a + b),
        "arg": lambda a, b: _sq(a, b) / np.sqrt(a * b),
        "ref": "Sec 3.6",
    },
    "Lt": {
        "printed_lead": lambda a, b: 2 * (a - b) ** 2 / (a + b),
        "printed_arg": lambda a, b: (a + b) / (2 * np.sqrt(a * b)),
        "lead": lambda a, b: 2 * (a - b) ** 2 / (a + b),
        "arg": lambda a, b: (a + b) / (2 * np.sqrt(a * b)),
        "ref": "Eq (58)",
    },
}
