"""Catalog of the seven means, their differences, and the divergence measures.

All one-dimensional generators f with f(1) = 0 (divergences) or f(1) = 1
(means) live here, keyed by short string ids.  Every generator is exact:
a rational function of u = sqrt(x) (``RatU``), or, for the root-mean-square
mean S and its six differences, r + t*S with rational r and t (``RatS``),
which floats evaluate through its conjugate wherever that avoids the
cancellation near x = 1.

Each entry carries a short ``ref`` string locating it in the source
catalog.  Those strings are report data; the code never depends on them.

Every public entry point takes its argument rules from here: each returns
the value it accepts, or raises a ``ValueError`` naming the parameter.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .ratfun import ONE, Poly, RatS, RatU, U, UContext, X

__all__ = [
    "Measure", "MEAN_ORDER", "MEAN_TAGS", "MEAN_LETTER", "BASE_IDS",
    "FAMILY_IDS", "get", "try_get", "all_ids", "iter_measures",
    "family_gen", "family_range", "family_index", "family_t",
    "family_member", "FAMILY_FORMS", "EQ9_FORMS", "PYRAMID_PAIRS",
    "integer", "index", "count", "seed", "real", "finite", "positive",
    "positive_pair",
]


def _p(*coeffs) -> Poly:
    """Polynomial in u from ascending integer coefficients."""
    return Poly(coeffs)


UM1 = _p(-1, 1)          # u - 1
UP1 = _p(1, 1)           # u + 1
XP1 = _p(1, 0, 1)        # x + 1
XM1 = _p(-1, 0, 1)       # x - 1
XM1SQ = XM1 * XM1        # (x - 1)^2


class Measure:
    """A named generator together with how to evaluate it.

    ``kind`` is "mean" (f(1) = 1) or "divergence" (f(1) = 0; convex except
    D_GH, D_NH and D_SR).  ``gen`` is the exact form, a ``RatU`` or a
    ``RatS``; both evaluate in floats, in ``decimal`` and exactly.
    """

    __slots__ = ("id", "label", "kind", "ref", "gen", "_fpp")

    def __init__(self, id: str, label: str, kind: str, ref: str,
                 gen: RatU | RatS):
        self.id = id
        self.label = label
        self.kind = kind
        self.ref = ref
        self.gen = gen
        self._fpp = None

    def __call__(self, x):
        """Generator value f(a/b) at x (scalar or numpy array)."""
        return self.gen(x)

    def eval_ctx(self, ctx: UContext):
        """Generator values at the points of a shared ``UContext``."""
        return self.gen.eval_ctx(ctx)

    def value(self, a, b):
        """Measure value b * f(a/b) at a ``pair_or_arrays``."""
        pair_or_arrays(a, b)        # a and b keep their types
        return self._at(a, b)

    def _at(self, a, b):
        """``value`` unchecked, for a caller that has checked (a, b)."""
        return b * self(a / b)

    @property
    def fpp(self) -> RatU | RatS:
        """Exact second derivative d2f/dx2."""
        if self._fpp is None:
            self._fpp = self.gen.d2x()
        return self._fpp

    def eval_mp(self, x, dps: int = 40) -> Decimal:
        """Generator value at x in dps-digit ``decimal`` arithmetic."""
        return self.gen.eval_decimal(Decimal(x), Context(prec=dps))

    def __repr__(self):
        return f"Measure({self.id!r})"


# ---------------------------------------------------------------------------
# Argument rules.  A bool is never a number here: a flag is not a count,
# an index or a coordinate.

def integer(name: str, value) -> int:
    """value as an int, from an int or a numpy integer but not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


def index(name: str, value, lo: int, hi: float = math.inf) -> int:
    """value as an ``integer`` in lo..hi."""
    value = integer(name, value)
    if not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bound}, not {value}")
    return value


def count(name: str, value) -> int:
    """value as an ``integer`` >= 1."""
    return index(name, value, 1)


def seed(value) -> int:
    """value as an ``integer`` >= 0, the seed of a random stream."""
    return index("seed", value, 0)


def real(name: str, value) -> float:
    """value as a float, from a real number, numpy's included, but not a
    bool; an int beyond the double range is +-inf."""
    # float and int first: isinstance against an abstract class is slow.
    if not isinstance(value, bool) and isinstance(value, (float, int,
                                                          numbers.Real)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ValueError(f"{name} must be a real number, not {value!r}")


def finite(name: str, value) -> float:
    """value as a finite ``real``, a negative one included."""
    value = real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return value


def positive(name: str, value) -> float:
    """value as a positive finite ``real``."""
    value = real(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")
    return value


def positive_pair(pair) -> tuple[float, float]:
    """The pair (a, b) as floats, from two ``positive`` coordinates."""
    try:
        a, b = pair
        return positive("a", a), positive("b", b)
    except (TypeError, ValueError):
        raise ValueError("pair (a, b) must be two positive finite real "
                         f"numbers, not {pair!r}") from None


def _array():
    """numpy's array type, looked up so that numpy is never imported."""
    return getattr(sys.modules.get("numpy"), "ndarray", ())


def point(x):
    """x as given if it is a numpy array, else as a ``positive`` "x"."""
    return x if isinstance(x, _array()) else positive("x", x)


def pair_or_arrays(a, b):
    """(a, b) as given if either is a numpy array, else a ``positive_pair``."""
    array = _array()
    return ((a, b) if isinstance(a, array) or isinstance(b, array)
            else positive_pair((a, b)))


# ---------------------------------------------------------------------------
# The seven means, ordered.  Letters index the catalog; tags name the kinds.

MEAN_ORDER = "HGNARSC"
MEAN_TAGS = {
    "H": "Harmonic",
    "G": "Geometric",
    "N": "Heronian",
    "A": "Arithmetic",
    "R": "Centroidal",
    "S": "RootMeanSquare",
    "C": "ContraHarmonic",
}
MEAN_LETTER = {tag: letter for letter, tag in MEAN_TAGS.items()}

_MEAN_GEN: dict[str, RatU | RatS] = {
    "H": RatU(2 * X, XP1),
    "G": RatU(U),
    "N": RatU(_p(1, 1, 1), _p(3)),
    "A": RatU(XP1, _p(2)),
    "R": RatU(2 * _p(1, 0, 1, 0, 1), 3 * XP1),
    "S": RatS(RatU.zero(), RatU(ONE)),
    "C": RatU(_p(1, 0, 0, 0, 1), XP1),
}


# ---------------------------------------------------------------------------
# Base divergence measures.

_BASE_GEN = {
    "delta": RatU(XM1SQ, XP1),
    "h": RatU(UM1 * UM1, _p(2)),
    "K": RatU(XM1SQ, U),
    "psi": RatU(XM1SQ * XP1, X),
    "F": RatU((X * X - ONE) ** 2, _p(0, 0, 0, 2)),
    "L": RatU(XM1SQ * XP1 ** 3, X * X),
}
BASE_IDS = tuple(_BASE_GEN)

_BASE_META = {
    "delta": ("triangular discrimination", "Sec 1.1"),
    "h": ("Hellinger discrimination", "Sec 1.1"),
    "K": ("Jain-Srivastava measure", "Eq (5), t=0"),
    "psi": ("symmetric chi-square", "Eq (5), 2L_1"),
    "F": ("Kumar-Johnson measure", "Eq (5), 2L_2"),
    "L": ("cubic-weight measure", "Eq (5), 8L_3"),
}

# ---------------------------------------------------------------------------
# W_1 .. W_9, the common-scale ladder of Eq (10).

_W_GEN = {
    1: RatU(2 * XM1SQ, XP1),
    2: RatU(8 * UM1 * UM1 * _p(2, 3, 2), 7 * XP1),
    3: RatU(8 * UM1 * UM1 * _p(1, 1, 1), 3 * XP1),
    4: RatU(8 * UM1 * UM1 * _p(2, 1, 2), 5 * XP1),
    5: RatU(4 * UM1 * UM1),
    6: RatU(XM1SQ, U),
    7: RatU(XM1SQ * XP1, 2 * X),
    8: RatU((X * X - ONE) ** 2, _p(0, 0, 0, 4)),
    9: RatU(XM1SQ * XP1 ** 3, 8 * X * X),
}

# Eq (9): position k of the scale as c * measure, W_k = c * measure.  The
# eq9 chain and the audit's W-aliases claims read it.
EQ9_FORMS: tuple[tuple[Fraction, str], ...] = tuple(
    (Fraction(c), mid) for c, mid in (
        (2, "delta"), ("24/7", "D_CN"), ("8/3", "D_CG"), ("24/5", "D_RG"),
        (8, "h"), (1, "K"), ("1/2", "psi"), ("1/2", "F"), ("1/8", "L")))

# Closed-form aliases of the ladder steps, shown by the registry listing
# and in each step's label: "2 delta", "(24/7)D_CN", "K".
FORMULA = {f"W{k}": f"({c}){mid}" if c.denominator != 1
           else mid if c == 1 else f"{c} {mid}"
           for k, (c, mid) in enumerate(EQ9_FORMS, start=1)}

# Pyramid of nonnegative differences D^k = W_i - W_j, row by row,
# each row walking j from i-1 down to 1.
PYRAMID_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(2, len(_W_GEN) + 1) for j in range(i - 1, 0, -1)
)

# ---------------------------------------------------------------------------
# V_1 .. V_14 (Eqs 13..26) and U_1 .. U_15 (Eqs 30..40, 43..45, 47).
# Interior polynomial factors are written in u; x + k*u + 1 etc. become
# ascending coefficient tuples.

_V_GEN = {
    1: RatU(UM1 ** 6, U * XP1),
    2: RatU(UM1 ** 8, X * XP1),
    3: RatU(_p(1, 6, 1) * UM1 ** 6, X * XP1),
    4: RatU(UM1 ** 6, X),
    5: RatU(UP1 ** 2 * UM1 ** 8, X * U * XP1),
    6: RatU(_p(1, 6, 22, 6, 1) * UM1 ** 6, X * U * XP1),
    7: RatU(_p(1, 6, 1) * UM1 ** 6, X * U),
    8: RatU(UP1 ** 2 * UM1 ** 6, X * U),
    9: RatU(UP1 ** 4 * UM1 ** 8, X * X * XP1),
    10: RatU(_p(1, 6, 23, 68, 23, 6, 1) * UM1 ** 6, X * X * XP1),
    11: RatU(_p(1, 6, 22, 6, 1) * UM1 ** 6, X * X),
    12: RatU(UP1 ** 2 * UM1 ** 8, X * X),
    13: RatU(XM1SQ * _p(1, 4, 1) * UM1 ** 4, X * X),
    14: RatU(XP1 * UP1 ** 2 * UM1 ** 6, X * X),
}

_V_REF = {t: f"Eq ({12 + t})" for t in _V_GEN}
_V_REF[9] += ", corrected"
_V_REF[14] += ", corrected"

_U_GEN = {
    1: RatU(UM1 ** 8, X * XP1),
    2: RatU(UM1 ** 8, X * U),
    3: RatU(UM1 ** 8 * _p(2, 7, 2), X * U * XP1),
    4: RatU(UM1 ** 8 * _p(9, 40, 86, 40, 9), X * X * XP1),
    5: RatU(UM1 ** 8 * _p(1, 8, 38, 8, 1), X * X * XP1),
    6: RatU(UM1 ** 8 * _p(1, 8, 1), X * U * XP1),
    7: RatU(UM1 ** 8 * _p(1, -1, 1), X * X),
    8: RatU(UM1 ** 8 * _p(1, 8, 1), X * X),
    9: RatU(UM1 ** 8 * UP1 ** 2, X * X),
    10: RatU(UM1 ** 10, X * U * XP1),
    11: RatU(UP1 ** 2 * UM1 ** 10, X * X * XP1),
    12: RatU(UM1 ** 10 * _p(11, -2, 11), X * X * XP1),
    13: RatU(UM1 ** 10, X * X),
    14: RatU(UM1 ** 10 * _p(1, 10, 1), X * X * XP1),
    15: RatU(UM1 ** 12, X * X * XP1),
}

_U_REF = {t: f"Eq ({29 + t})" for t in range(1, 12)}
_U_REF.update({12: "Eq (43)", 13: "Eq (44)", 14: "Eq (45)", 15: "Eq (47)"})

# ---------------------------------------------------------------------------
# Parametric families.

FAMILY_IDS = ("Delta1", "Delta2", "K1", "K2", "Hgen", "Mnew")

_FAMILY_REF = {
    "Delta1": "Eq (49)", "Delta2": "Eq (53)", "K1": "Eq (54)",
    "K2": "Eq (55)", "Hgen": "Eq (56)", "Mnew": "Eq (57)",
    "Lt": "Eq (5)", "topsoe": "Eq (9b)",
}

FAMILY_T_MAX = 64
LT_T_RANGE = (-8, 8)

_ROOT_STEP = (UM1 * UM1, U)      # (sqrt x - 1)^2 / sqrt x
_SQUARE_STEP = (XM1SQ, X)        # (x - 1)^2 / x

# Every member is geometric in t: lead * ratio^t, with both held as
# (numerator, denominator) polynomials in u.  The lead is the member at
# t = 0, or at the first t of the range when that is later (topsoe).
FAMILY_FORMS: dict[str, tuple[tuple[Poly, Poly], tuple[Poly, Poly]]] = {
    "Delta1": ((XM1SQ, XP1), _ROOT_STEP),
    "Delta2": ((XM1SQ, XP1), _SQUARE_STEP),
    "K1": ((XM1SQ, U), _ROOT_STEP),
    "K2": ((XM1SQ, U), _SQUARE_STEP),
    "Hgen": ((UM1 * UM1, ONE), _ROOT_STEP),
    "Mnew": ((UM1 ** 4, XP1), _ROOT_STEP),
    "Lt": ((XM1SQ, U), (XP1, _p(0, 2))),
    "topsoe": ((XM1SQ, XP1), (XM1SQ, XP1 * XP1)),
}


def family_gen(name: str, t) -> RatU:
    """Exact generator of the t-th member of a parametric family.

    lead * ratio^k for k = t less the lead's t, the ratio upside down for
    k < 0, with the power of u common to both sides divided out.  t is
    validated (``family_t``) before the cache, so any t the rule refuses
    raises ``ValueError``.
    """
    return _family_gen(name, family_t(name, t))


@lru_cache(maxsize=None)
def _family_gen(name: str, t: int) -> RatU:
    (num, den), ratio = FAMILY_FORMS[name]
    k = t - max(family_range(name)[0], 0)
    step_num, step_den = ratio if k >= 0 else ratio[::-1]
    num, den = num * step_num ** abs(k), den * step_den ** abs(k)
    low = min(next(i for i, c in enumerate(p.coeffs) if c) for p in (num, den))
    return RatU(Poly(num.coeffs[low:]), Poly(den.coeffs[low:]))


def family_range(name: str) -> tuple[int, int]:
    if name not in FAMILY_FORMS:
        raise KeyError(f"unknown family {name!r}")
    return {"Lt": LT_T_RANGE, "topsoe": (1, FAMILY_T_MAX)}.get(
        name, (0, FAMILY_T_MAX))


def family_index(t) -> int:
    """t as an int: an ``integer``, or a float or numpy float of integer
    value.

    A numpy number can only exist once numpy is loaded, so its types are
    looked up in ``sys.modules`` and this never imports numpy.
    """
    np = sys.modules.get("numpy")
    floats = (float,) if np is None else (float, np.floating)
    if isinstance(t, floats) and float(t).is_integer():
        return int(t)
    return integer("t", t)


def family_t(name: str, t) -> int:
    """t as a ``family_index`` in the range of family ``name``: the one
    rule for a member's t."""
    return index("t", family_index(t), *family_range(name))


# ---------------------------------------------------------------------------
# Registry assembly.

SERIES_LAST = {"W": len(_W_GEN), "D": len(PYRAMID_PAIRS), "V": len(_V_GEN),
               "U": len(_U_GEN)}


def series_member(series: str, name: str, k) -> Measure:
    """Member k of a numbered series, k an ``index`` called ``name``."""
    return _REGISTRY[f"{series}{index(name, k, 1, SERIES_LAST[series])}"]


_REGISTRY: dict[str, Measure] = {}


def _add(measure: Measure):
    if measure.id in _REGISTRY:
        raise ValueError(f"duplicate measure id {measure.id}")
    _REGISTRY[measure.id] = measure


for _letter in MEAN_ORDER:
    _add(Measure(_letter, f"{MEAN_TAGS[_letter]} mean", "mean", "Eq (1)",
                 gen=_MEAN_GEN[_letter]))

for _i in range(len(MEAN_ORDER)):
    for _j in range(_i):
        _hi, _lo = MEAN_ORDER[_i], MEAN_ORDER[_j]
        _add(Measure(f"D_{_hi}{_lo}",
                     f"{MEAN_TAGS[_hi]} minus {MEAN_TAGS[_lo]}", "divergence",
                     "Sec 1.1", gen=_MEAN_GEN[_hi] - _MEAN_GEN[_lo]))

for _bid, _gen in _BASE_GEN.items():
    _label, _ref = _BASE_META[_bid]
    _add(Measure(_bid, _label, "divergence", _ref, gen=_gen))

for _k, _gen in _W_GEN.items():
    _add(Measure(f"W{_k}", f"ladder step {FORMULA[f'W{_k}']}", "divergence",
                 f"Eq (9) position {_k}", gen=_gen))

for _k, (_i, _j) in enumerate(PYRAMID_PAIRS, start=1):
    _add(Measure(f"D{_k}", f"W{_i} - W{_j}", "divergence",
                 "Eq (11) pyramid", gen=_W_GEN[_i] - _W_GEN[_j]))

for _t, _gen in _V_GEN.items():
    _add(Measure(f"V{_t}", f"first-stage residual V_{_t}", "divergence",
                 _V_REF[_t], gen=_gen))

for _t, _gen in _U_GEN.items():
    _add(Measure(f"U{_t}", f"second-stage residual U_{_t}", "divergence",
                 _U_REF[_t], gen=_gen))


_FAMILY_ALIASES = {name.lower(): name for name in FAMILY_IDS}
_FAMILY_ALIASES.update({"lt": "Lt", "l_t": "Lt", "topsoe": "topsoe"})


@lru_cache(maxsize=None)
def _family_member(family: str, t: int) -> Measure:
    return Measure(f"{family}:{t}", f"{family} member t={t}", "divergence",
                   _FAMILY_REF[family], gen=_family_gen(family, t))


def family_member(name: str, t) -> Measure:
    """Member t of a family; ValueError where ``family_t`` refuses t."""
    return _family_member(name, family_t(name, t))


def try_get(measure_id: str) -> Optional[Measure]:
    """Look up a measure id, returning None when unknown."""
    m = _REGISTRY.get(measure_id)
    if m is not None:
        return m
    if ":" in measure_id:
        name, _, t_str = measure_id.partition(":")
        family = _FAMILY_ALIASES.get(name.lower())
        if family is None:
            return None
        # Only an optional '-' and ASCII digits: int() would also take
        # '1_0', ' 3', '+3' and non-ASCII digits.
        digits = t_str[1:] if t_str.startswith("-") else t_str
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            t = family_t(family, int(t_str))
        except ValueError:      # out of range, or too many digits for int
            return None
        return _family_member(family, t)
    return None


def get(measure) -> Measure:
    m = measure if isinstance(measure, Measure) else try_get(measure)
    if m is None:
        raise KeyError(f"unknown measure id {measure!r}")
    return m


def all_ids() -> list[str]:
    """Ids of every non-parametric catalog entry, in catalog order."""
    return list(_REGISTRY)


def iter_measures():
    return iter(_REGISTRY.values())
