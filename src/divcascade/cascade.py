"""The measure cascade: scales, pyramid differences, residual identities.

This module holds the ordered W scale, the 36 pyramid differences, the V
and U residual measures, the sharp constants attached to each adjacent
pair, the proof-part decomposition tables, the linear combination lines,
and every inequality chain, all as declarative data that the audit
engine replays.  Each claim is proved as one exact sum of c * form:
``is_exact_combination`` (the sum is zero) and ``is_exact_ordering``
(the sum is zero or positive off x = 1).  ``certify_convexity`` proves
a generator convex and spot-checks its f'' in scalars.  The proofs load
no numpy: only the functions that sample import ``analysis``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterable, Optional

from . import catalog
from .catalog import (EQ9_FORMS, LT_T_RANGE, MEAN_ORDER, PYRAMID_PAIRS, XM1SQ,
                      XP1, positive_pair)
from .ratfun import ONE, Poly, RatS, RatU, X, solve_exact
from .reporting import CheckResult, make_result

if TYPE_CHECKING:
    from . import analysis

Frac = Fraction

__all__ = [
    "W", "V", "U", "W_second_derivative", "W_FPP_PRINTED",
    "pyramid_pair", "pyramid_diff", "pyramid_equalities",
    "PYRAMID_EQ_SCALES", "PYRAMID_EQ_CLAIMS", "Chain", "CHAINS", "chains", "get_chain",
    "chain_from_dict", "audit_chain", "chain_proved", "check_chain",
    "named_links", "TheoremPart",
    "THEOREM_PARTS", "theorem_parts", "beta_constant", "beta_exact",
    "residual_decompositions", "is_exact_combination", "is_exact_ordering",
    "certify_convexity", "ComboLine",
    "COMBINATION_LINES", "combination_lines", "equivalent_expression",
    "fit_combination",
]


# ---------------------------------------------------------------------------
# The W scale and the pyramid of differences.

def W(i: int, pair) -> float:
    """Value of the i-th scale measure, i in 1..9."""
    return float(catalog.series_member("W", "i", i)._at(*positive_pair(pair)))


def W_second_derivative(i: int, x: float) -> float:
    """Analytic second derivative of the i-th scale generator."""
    return catalog.series_member("W", "i", i).fpp(catalog.point(x))


def _xp(*coeffs) -> Poly:
    """Polynomial in x from ascending coefficients, as a polynomial in u."""
    return Poly([c for k in coeffs for c in (k, 0)])


_XU, _CUBE = X.shift(1), XP1 ** 3       # x sqrt(x) and (x + 1)^3

# Second derivatives of the W generators as printed.  Entry 8 disagrees
# with the derived form (14x^4 should be 15x^4) and is kept here so the
# audit can flag it.
W_FPP_PRINTED: dict[int, RatU] = {
    1: RatU(16 * ONE, _CUBE),
    2: RatU(2 * (_CUBE + 48 * _XU), 7 * _XU * _CUBE),
    3: RatU(2 * (_CUBE + 16 * _XU), 3 * _XU * _CUBE),
    4: RatU(2 * (3 * _CUBE + 16 * _XU), 5 * _XU * _CUBE),
    5: RatU(2 * ONE, _XU),
    6: RatU(_xp(3, 2, 3), (4 * X * X).shift(1)),
    7: RatU(_xp(1, 0, 0, 1), X ** 3),
    8: RatU(_xp(15, 0, 2, 0, 14), (16 * X ** 3).shift(1)),
    9: RatU(XP1 * (2 * _xp(1, 0, 0, 0, 1) + _xp(1, 0, 1) * XM1SQ),
            4 * X ** 4),
}


def pyramid_pair(k: int) -> tuple[int, int]:
    """Map a pyramid difference index (1..36) to its (upper, lower) scale."""
    return PYRAMID_PAIRS[catalog.index("k", k, 1, len(PYRAMID_PAIRS)) - 1]


def pyramid_diff(k: int, pair) -> float:
    """Value of the k-th pyramid difference W_upper - W_lower."""
    return float(catalog.series_member("D", "k", k)._at(*positive_pair(pair)))


# Scalings that flatten the first ten pyramid differences onto the single
# value (sqrt(a) - sqrt(b))^4 / (a + b); each claim equates one of the
# scaled D^2..D^10 with the scaled D^1.
PYRAMID_EQ_SCALES = (
    Frac(7, 2), Frac(21, 8), Frac(3, 2), Frac(15, 8), Frac(35, 32),
    Frac(5, 6), Frac(5, 4), Frac(3, 4), Frac(7, 12), Frac(1, 2),
)
PYRAMID_EQ_CLAIMS = tuple(
    (((s, f"D{k}"),), ((PYRAMID_EQ_SCALES[0], "D1"),))
    for k, s in enumerate(PYRAMID_EQ_SCALES[1:], start=2))


def pyramid_equalities(pair, tol: float = 1e-12):
    """Collapse the ten scaled differences D^1..D^10 to their common value.

    Returns (common value, per-index relative deviations) and raises if
    any deviation exceeds tol.  The scaled D^1 is the common value; each
    other deviation is the audit's ``analysis.Equality`` gap of its claim
    in ``PYRAMID_EQ_CLAIMS``.  tol is a finite real number, or a
    ``ValueError``.
    """
    from . import analysis
    tol, (a, b) = catalog.finite("tol", tol), positive_pair(pair)
    common = float(PYRAMID_EQ_SCALES[0]) * catalog.get("D1")._at(a, b)
    claims = [analysis.Equality(*claim) for claim in PYRAMID_EQ_CLAIMS]
    gaps = analysis.claim_gaps(claims, analysis.Sample(a, b))
    residuals = {"D1": 0.0}
    for eq, gap in zip(claims, gaps):
        residuals[eq.lhs[0][1]] = float(gap[0])
    worst = max(residuals.values())
    if worst > tol:
        raise ValueError(f"pyramid equality broke at {pair}: "
                         f"relative deviation {worst:.3e}")
    return common, residuals


def V(t: int, pair) -> float:
    """Value of the t-th second-order residual measure, t in 1..14."""
    return float(catalog.series_member("V", "t", t)._at(*positive_pair(pair)))


def U(t: int, pair) -> float:
    """Value of the t-th third-order residual measure, t in 1..15."""
    return float(catalog.series_member("U", "t", t)._at(*positive_pair(pair)))


# ---------------------------------------------------------------------------
# Inequality chains.

@dataclass(frozen=True)
class Chain:
    """An ordered claim coef_0*m_0 <= coef_1*m_1 <= ... <= coef_n*m_n."""

    id: str
    ref: str
    terms: tuple[tuple[Fraction, str], ...]
    note: str = ""

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("a chain needs at least two terms")
        for c, mid in self.terms:
            if c <= 0:
                raise ValueError(f"coefficient for {mid} must be positive")


def _chain(id, ref, terms, note=""):
    return Chain(id, ref, tuple((Frac(c), m) for c, m in terms), note)


def _c1(ids):
    return [(1, m) for m in ids]


CHAINS: dict[str, Chain] = {c.id: c for c in [
    _chain("means", "Eq (1)-(2)", _c1(MEAN_ORDER), "the seven ordered means"),
    # Each mean from N up over every lower one, nearest first.
    *(_chain(f"pyramid_{hi}", "Sec 1.1",
             _c1(f"D_{hi}{lo}" for lo in MEAN_ORDER[i - 1::-1]))
      for i, hi in enumerate(MEAN_ORDER) if i >= 2),
    _chain("eq4a", "Eq (4)", [
        (1, "D_SA"), (Frac(3, 4), "D_SN"), (Frac(3, 7), "D_CN"),
        (1, "D_CS"), (1, "h")]),
    _chain("eq4b", "Eq (4)", [
        (1, "D_SA"), (Frac(1, 3), "D_SH"), (Frac(1, 4), "delta"),
        (Frac(3, 7), "D_CN"), (Frac(1, 3), "D_CG"), (Frac(3, 5), "D_RG"),
        (1, "h")]),
    _chain("eq4c", "Eq (4)", [
        (Frac(1, 4), "delta"), (Frac(1, 2), "D_SG"), (Frac(3, 5), "D_RG")]),
    _chain("eq4d", "Eq (4)", [(Frac(3, 4), "D_SN"), (Frac(1, 2), "D_SG")]),
    _chain("eq7", "Eq (7)", [
        (Frac(1, 4), "delta"), (1, "h"), (Frac(1, 8), "K"),
        (Frac(1, 16), "psi"), (Frac(1, 16), "F"), (Frac(1, 64), "L")]),
    _chain("eq9", "Eq (9)", EQ9_FORMS),
    _chain("eq10", "Eq (10)", _c1(catalog.FORMULA), "the ordered scale"),
    _chain("eq12_main", "Eq (12)", [
        (1, "D1"),
        (Frac(1, 14), "D15"), (Frac(1, 13), "D14"), (Frac(3, 35), "D13"),
        (Frac(5, 49), "D12"), (Frac(1, 7), "D11"),
        (Frac(1, 28), "D21"), (Frac(1, 27), "D20"), (Frac(3, 77), "D19"),
        (Frac(5, 119), "D18"), (Frac(1, 21), "D17"), (Frac(1, 14), "D16"),
        (Frac(1, 42), "D28"), (Frac(1, 41), "D27"), (Frac(3, 119), "D26"),
        (Frac(5, 189), "D25"), (Frac(1, 35), "D24"), (Frac(1, 28), "D23"),
        (Frac(1, 56), "D36"), (Frac(1, 55), "D35"), (Frac(3, 161), "D34"),
        (Frac(5, 259), "D33"), (Frac(1, 49), "D32"), (Frac(1, 42), "D31"),
        (Frac(1, 28), "D30"), (Frac(1, 14), "D29")],
           "main path through the cascade"),
    _chain("eq12_branch", "Eq (12)", [
        (Frac(1, 28), "D23"), (Frac(1, 14), "D22"), (Frac(1, 42), "D31")],
           "side branch through D22"),
    _chain("eq28a", "Eq (28)", [
        (1, "V1"), (Frac(1, 8), "V3"), (Frac(1, 2), "V4"),
        (Frac(1, 16), "V7"), (Frac(1, 8), "V8"), (Frac(1, 72), "V11"),
        (Frac(1, 48), "V13"), (Frac(1, 16), "V14")]),
    _chain("eq28b", "Eq (28)", [
        (1, "V1"), (Frac(1, 8), "V3"), (Frac(1, 36), "V6"),
        (Frac(1, 128), "V10"), (Frac(1, 72), "V11"),
        (Frac(1, 48), "V13"), (Frac(1, 16), "V14")]),
    _chain("eq29", "Eq (29)", [
        (1, "V2"), (Frac(1, 4), "V5"), (Frac(1, 16), "V9"),
        (Frac(1, 8), "V12")]),
    _chain("eq42a", "Eq (42)", [
        (1, "U1"), (Frac(1, 10), "U6"), (Frac(1, 11), "U3"),
        (Frac(1, 2), "U2"), (Frac(1, 20), "U8"), (Frac(1, 8), "U9"),
        (Frac(1, 2), "U7")]),
    _chain("eq42b", "Eq (42)", [
        (1, "U1"), (Frac(1, 10), "U6"), (Frac(1, 11), "U3"),
        (Frac(1, 56), "U5"), (Frac(1, 20), "U8"), (Frac(1, 8), "U9"),
        (Frac(1, 2), "U7")]),
    _chain("eq46", "Eq (46)", [
        (1, "U10"), (Frac(1, 12), "U14"), (Frac(1, 4), "U11"),
        (Frac(1, 2), "U13"), (Frac(1, 20), "U12")]),
    _chain("reverse1", "Sec 2.2", [
        (1, "D11"), (1, "D12"), (1, "D13"), (1, "D14"), (1, "D15"),
        (Frac(14, 13), "D14"), (Frac(6, 5), "D13"), (Frac(10, 7), "D12"),
        (2, "D11")]),
    _chain("reverse2", "Sec 2.2", [
        (1, "D16"), (1, "D17"), (1, "D18"), (1, "D19"), (1, "D20"),
        (1, "D21"), (Frac(28, 27), "D20"), (Frac(12, 11), "D19"),
        (Frac(20, 17), "D18"), (Frac(4, 3), "D17"), (2, "D16")]),
    _chain("reverse3", "Sec 2.2", [
        (1, "D22"), (1, "D23"), (1, "D24"), (1, "D25"), (1, "D26"),
        (1, "D27"), (1, "D28"), (Frac(42, 41), "D27"), (Frac(18, 17), "D26"),
        (Frac(10, 9), "D25"), (Frac(6, 5), "D24"), (Frac(3, 2), "D23"),
        (3, "D22")]),
    _chain("reverse4", "Sec 2.2", [
        (1, "D29"), (1, "D30"), (1, "D31"), (1, "D32"), (1, "D33"),
        (1, "D34"), (1, "D35"), (1, "D36"), (Frac(56, 55), "D35"),
        (Frac(24, 23), "D34"), (Frac(40, 37), "D33"), (Frac(8, 7), "D32"),
        (Frac(4, 3), "D31"), (2, "D30"), (4, "D29")]),
    _chain("Lt_monotone", "Eq (5)",
           _c1(f"Lt:{t}" for t in range(LT_T_RANGE[0], LT_T_RANGE[1] + 1)),
           "the one-parameter ladder is nondecreasing in t"),
]}


def chains() -> tuple[str, ...]:
    """Ids of every registered chain."""
    return tuple(CHAINS)


def get_chain(chain_id: str) -> Chain:
    try:
        return CHAINS[chain_id]
    except KeyError:
        raise KeyError(f"unknown chain {chain_id!r}; "
                       f"known: {', '.join(CHAINS)}") from None


def chain_from_dict(doc: dict) -> Chain:
    """Build a chain from a declarative document.

    Expected shape: {"id": ..., "ref": ..., "terms": [[coef, measure], ...]}
    where coef is a number or a string like "3/35".
    """
    terms = [(Frac(str(c)), str(m)) for c, m in doc["terms"]]
    for _, mid in terms:
        catalog.get(mid)
    return Chain(str(doc["id"]), str(doc.get("ref", "")), tuple(terms),
                 str(doc.get("note", "")))


def audit_chain(chain, samples: int = 100000, seed=0, tol: float = 1e-12,
                workers: int = 1) -> CheckResult:
    """Prove every adjacent ordering in the chain, then scan sampled pairs
    in ``workers`` processes, this one and ``workers`` - 1 scan helpers
    (see ``analysis.scan_claims``).

    ``samples`` and ``workers`` are each a ``catalog.count``, ``seed`` a
    ``catalog.seed`` or None, and ``tol`` a ``catalog.finite``; a
    negative tol records pairs that hold as counterexamples too.
    """
    from . import analysis
    samples = catalog.count("samples", samples)
    if isinstance(chain, str):
        chain = get_chain(chain)
    return check_chain(chain, analysis.Sample.draw(samples, seed), tol,
                       workers)


@cache
def _link_proved(lo, hi) -> bool:
    """Whether the link c0*m0 <= c1*m1 holds at every x > 0, proved once."""
    return is_exact_ordering((lo,), (hi,))


def chain_proved(chain: Chain) -> bool:
    """Whether every adjacent link of the chain is proved."""
    return all(_link_proved(lo, hi)
               for lo, hi in zip(chain.terms, chain.terms[1:]))


def check_chain(chain: Chain, sample: analysis.Sample, tol: float = 1e-12,
                workers: int = 1, fold: analysis.Fold | None = None,
                proved: bool | None = None) -> CheckResult:
    """Prove every adjacent ordering in the chain and scan the sample.

    The scan is ``fold``, the chain's from a shared ``start_scan``
    pass, and the proof verdict is ``proved``, ``chain_proved(chain)``,
    if given.  A failed link proof reads inf; the scan's counterexamples
    stay, copied by ``named_links``.
    """
    from . import analysis
    max_violation, records = (fold.worst, fold.records) if fold else (
        analysis.scan_chain_terms(chain.terms, sample, tol, workers))
    if proved is None:
        proved = chain_proved(chain)
    if not proved:
        max_violation = float("inf")
    return make_result(f"chain:{chain.id}", "chain", sample.size,
                       max_violation, tol, named_links(chain.terms, records),
                       ref=chain.ref)


def named_links(terms, records) -> list[dict]:
    """Copies of a chain scan's records, each naming the link it broke as
    its last key, ``step`` "c*m <= c*m" (``analysis.Ordering.steps`` of
    the records' own pairs)."""
    if not records:
        return []
    from . import analysis
    steps = analysis.Ordering(terms, 0.0).steps(
        *zip(*((r["a"], r["b"]) for r in records)))
    return [{**r, "step": "{}*{} <= {}*{}".format(*terms[i], *terms[i + 1])}
            for r, i in zip(records, steps)]


# ---------------------------------------------------------------------------
# Proof parts: adjacent sharp constants and residual decompositions.
# Each part states  small <= beta*big  with exact residual
# beta*big - small = c*residual.

@dataclass(frozen=True)
class TheoremPart:
    id: str
    small: str
    big: str
    beta: Fraction
    c: Fraction
    residual: str
    printed_c: Optional[Fraction] = None

    @property
    def terms(self):
        """The two-term chain claim small <= beta*big."""
        return ((Frac(1), self.small), (self.beta, self.big))

    @property
    def claim(self):
        """The residual identity beta*big - small = c*residual as (lhs, rhs)."""
        return (((self.beta, self.big), (Frac(-1), self.small)),
                ((self.c, self.residual),))

    @property
    def misprints(self) -> tuple:
        """The residual identity with the printed constant, if recorded."""
        return () if self.printed_c is None else (
            replace(self, c=self.printed_c).claim,)


def _parts(theorem: str, prefix: str, rows, residual_prefix: str):
    out = []
    for n, row in enumerate(rows, start=1):
        small, big, beta, c, resid, *extra = row
        out.append(TheoremPart(
            id=f"{theorem}:{n}",
            small=f"{prefix}{small}", big=f"{prefix}{big}",
            beta=Frac(beta), c=Frac(c),
            residual=f"{residual_prefix}{resid}",
            printed_c=Frac(extra[0]) if extra else None))
    return out


_THM21_ROWS = [
    (1, 15, "1/14", "1/14", 1), (15, 14, "14/13", "1/13", 1),
    (14, 13, "39/35", "4/35", 1), (13, 12, "25/21", "4/21", 1),
    (12, 11, "7/5", "2/5", 1), (11, 21, "1/4", "1/8", 2),
    (21, 20, "28/27", "1/54", 3), (20, 19, "81/77", "2/77", 3),
    (19, 18, "55/51", "2/51", 3), (18, 17, "17/15", "1/15", 3),
    (17, 16, "3/2", "1/4", 4), (16, 28, "1/3", "1/12", 5),
    (28, 27, "42/41", "1/164", 6), (27, 26, "123/119", "1/119", 6),
    (26, 25, "85/81", "1/81", 6), (25, 24, "27/25", "1/50", 6),
    (24, 23, "5/4", "1/16", 7, "1/4"), (23, 22, "2", "1/4", 8),
    (23, 36, "1/2", "1/16", 9), (36, 35, "56/55", "1/440", 10),
    (35, 34, "165/161", "1/322", 10), (34, 33, "115/111", "1/222", 10),
    (33, 32, "37/35", "1/140", 10), (32, 31, "7/6", "1/48", 11),
    (22, 31, "1/3", "1/24", 12), (31, 30, "3/2", "1/16", 13),
    (30, 29, "2", "1/8", 14),
]
_THM22_ROWS = [
    (1, 3, "1/8", "1/8", 1), (3, 4, "4", "3", 1), (4, 7, "1/8", "1/8", 2),
    (3, 6, "2/9", "1/9", 3), (6, 10, "9/32", "1/32", 4),
    (10, 11, "16/9", "7/9", 5), (6, 7, "9/4", "5/4", 6), (7, 8, "2", "1", 2),
    (8, 11, "1/9", "1/9", 7), (11, 13, "3/2", "1/2", 8),
    (13, 14, "3", "2", 9), (2, 5, "1/4", "1/4", 10), (5, 9, "1/4", "1/4", 11),
    (9, 12, "2", "1", 11),
]
_THM23_ROWS = [
    (1, 6, "1/10", "1/10", 10), (6, 3, "10/11", "9/11", 10),
    (3, 5, "11/56", "1/56", 12), (3, 2, "11/2", "7/2", 10),
    (2, 8, "1/10", "1/10", 13), (5, 8, "14/5", "9/5", 14),
    (8, 9, "5/2", "3/2", 13), (9, 7, "4", "3", 13),
]
_THM24_ROWS = [
    (10, 14, "1/12", "1/12", 15), (14, 11, "3", "2", 15),
    (11, 13, "2", "1", 15), (13, 12, "1/10", "1/10", 15),
]

THEOREM_PARTS: dict[str, TheoremPart] = {
    p.id: p
    for p in (_parts("2.1", "D", _THM21_ROWS, "V")
              + _parts("2.2", "V", _THM22_ROWS, "U")
              + _parts("2.3", "U", _THM23_ROWS, "U")
              + _parts("2.4", "U", _THM24_ROWS, "U"))
}


def _part(part) -> TheoremPart:
    if isinstance(part, TheoremPart):
        return part
    if isinstance(part, numbers.Integral) and not isinstance(part, bool):
        part = f"2.1:{part}"
    try:
        return THEOREM_PARTS[part]
    except KeyError:
        raise KeyError(f"unknown proof part {part!r}") from None


def theorem_parts(theorem: str | None = None) -> list[TheoremPart]:
    """All proof parts, optionally restricted to one theorem ("2.1"..);
    ``KeyError`` for a theorem with no part, as ``_part`` for a part."""
    parts = [p for p in THEOREM_PARTS.values()
             if theorem is None or p.id.startswith(theorem + ":")]
    if not parts:
        raise KeyError(f"unknown theorem {theorem!r}")
    return parts


def beta_constant(part) -> Fraction:
    """The claimed sharp constant beta for a proof part, exact."""
    return _part(part).beta


def beta_exact(part) -> Fraction:
    """Beta recomputed from the exact second derivatives at x = 1."""
    p = _part(part)
    fs = catalog.get(p.small).fpp
    fb = catalog.get(p.big).fpp
    return fs.ratio_limit_at_1(fb)


def residual_decompositions(part, pair, tol: float = 1e-11) -> dict:
    """Check beta*big - small = c*residual at one pair.

    The relative residual is the audit's ``analysis.Equality`` gap.  It is
    measured against the largest term involved, the only scale on which
    the identity is testable in floats: near a = b the two sides agree
    through several vanishing orders.  tol is a finite real number, or a
    ``ValueError``.
    """
    from . import analysis
    p, tol = _part(part), catalog.finite("tol", tol)
    a, b = positive_pair(pair)
    small, big, resid = (catalog.get(m)._at(a, b)
                         for m in (p.small, p.big, p.residual))
    lhs = float(p.beta) * big - small
    rhs = float(p.c) * resid
    claim = analysis.Equality(*p.claim)
    rel = float(analysis.claim_gaps([claim], analysis.Sample(a, b))[0][0])
    return {
        "part": p.id, "claim": f"{p.beta}*{p.big} - {p.small} = {p.c}*{p.residual}",
        "lhs": lhs, "rhs": rhs, "residual": rel, "passed": bool(rel <= tol),
    }


def _claim_sum(plus, minus):
    """sum(c * form) over ``plus`` minus that over ``minus``, exactly.

    A term is (c, catalog id), standing for its generator, or (c, exact
    ``RatU``/``RatS`` form).  The sum starts from its first term and adds
    with ``+``, the addition that builds every catalog form.
    """
    acc = None
    for sign, terms in ((1, plus), (-1, minus)):
        for c, sym in terms:
            if not isinstance(sym, (RatU, RatS)):
                sym = catalog.get(sym).gen
            term = sym * (sign * Frac(c))
            acc = term if acc is None else acc + term
    return acc


def is_exact_combination(lhs, rhs) -> bool:
    """Whether sum(c * form) over ``lhs`` equals that over ``rhs`` exactly."""
    return _claim_sum(lhs, rhs).is_zero()


def is_exact_ordering(lo, hi) -> bool:
    """Whether sum(c * form) over ``lo`` <= that over ``hi`` at all x > 0.

    Proved when the difference hi - lo is zero or positive off x = 1.
    """
    gap = _claim_sum(hi, lo)
    return gap.is_zero() or gap.positive_off_one()


# Spot check of an exact f'' against a 40-digit central difference, at
# 10^-4, 10^-3, ..., 10^4 and either side of x = 1.
FD_REL_TOL = 1e-6
FD_ABS_TOL = 1e-8
SPOT_POINTS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 0.999, 1.001)


def _fd2_mp(measure: catalog.Measure, x: float, dps: int = 40) -> float:
    """Central second difference in dps-digit ``decimal``, h = 1e-5 x.

    Plain float64 differences cannot certify steep generators: the noise
    floor eps*f/(h^2 f'') passes 1e-6 at x = 1e-4 and 1e4 no matter how h
    is chosen.  Working at 40 digits leaves only the O((h/x)^2) = 1e-10
    truncation term.
    """
    xv = Decimal(x)
    with localcontext(Context(prec=dps)):
        h = xv * Decimal("1e-5")
        out = (measure.eval_mp(xv + h, dps) - 2 * measure.eval_mp(xv, dps)
               + measure.eval_mp(xv - h, dps)) / (h * h)
    return float(out)


def certify_convexity(measure) -> CheckResult:
    """Certify that a divergence generator is convex and normalized.

    Proves f(1) = 0 and f'(1) = 0 (a pole at x = 1 fails each by inf)
    and the exact f'' positive on all of x > 0 apart from x = 1
    (``positive_off_one`` of the ``RatU`` or ``RatS`` form, by Polya
    certificates; a failed ``RatU`` proof records the N of num and den
    as ``polya``).  A spot check of f'' against a 40-digit ``decimal``
    central difference at ``SPOT_POINTS``, to within
    FD_REL_TOL * |f''| + FD_ABS_TOL, catches a wrong derivative; the
    absolute floor covers f'' vanishing to high order near x = 1, and a
    value that is not finite fails.  One point is recorded: the first
    whose excess is NaN, else the first with the largest excess.  f''
    is evaluated one scalar at a time, in Python floats, with the bits
    it has inside an array (``ratfun``): this loads no numpy, so an
    audit's prover certifies before numpy loads.
    """
    m = catalog.get(measure)
    if m.kind != "divergence":
        raise ValueError(f"{m.id} is a {m.kind}; convexity certificates "
                         "apply to divergence generators")
    bad: list[dict] = []

    def flag(x, check, amount):
        bad.append({"x": float(x), "check": check, "violation": float(amount)})

    for check, form in (("f(1)=0", m.gen), ("f'(1)=0", m.gen.dx())):
        try:
            at_1 = abs(form.limit_at_1())
        except ZeroDivisionError:       # a pole at x = 1
            at_1 = math.inf
        if at_1 != 0:
            flag(1.0, check, at_1)

    f2 = m.fpp
    if not f2.positive_off_one():
        bad.append({"check": "f''>0 off x=1", "violation": math.inf})
        if isinstance(f2, RatU):
            bad[-1].update(m=f2.m, polya=[f2.num.polya_degree(),
                                          f2.den.polya_degree()])
    spot = None                         # (excess, x, |f'' - fd|)
    for x in SPOT_POINTS:
        value = float(f2(x))
        diff = abs(value - _fd2_mp(m, x))
        excess = diff - (FD_REL_TOL * abs(value) + FD_ABS_TOL)
        if spot is None or not excess <= spot[0]:
            spot = (excess, x, diff)
            if excess != excess:        # NaN: no later point outranks it
                break
    excess, x, diff = spot
    if not excess <= 0.0:
        flag(x, "analytic-vs-fd", diff if math.isfinite(diff) else math.inf)

    # Every recorded violation is > 0, so a tol of 0 fails exactly when
    # one is recorded.
    worst = max((r["violation"] for r in bad), default=0.0)
    return make_result(f"convexity:{m.id}", "convexity", len(SPOT_POINTS),
                       worst, 0.0, bad[:10], ref=m.ref)


def residual_identity_exact(part) -> bool:
    """Verify beta*f_big - f_small = c*f_residual at the generator level."""
    return is_exact_combination(*_part(part).claim)


# ---------------------------------------------------------------------------
# Linear combination lines for the residual measures.

@dataclass(frozen=True)
class ComboLine:
    measure: str
    label: str
    terms: tuple[tuple[Fraction, str], ...]
    status: str  # "ok" = printed and correct, "printed" = as printed but
    #              wrong, "corrected" = our replacement

    @property
    def claim(self):
        """The line as the identity measure = sum(terms), as (lhs, rhs)."""
        return ((Frac(1), self.measure),), self.terms


def _combo(measure, label, status, terms):
    return ComboLine(measure, label, tuple((Frac(c), m) for c, m in terms),
                     status)


_CL: list[ComboLine] = [
    _combo("V1", "a", "ok", [(1, "K"), (26, "delta"), (-48, "D_CN")]),
    _combo("V1", "b", "ok", [(1, "K"), (30, "D_CN"), (-26, "D_CG")]),
    _combo("V1", "c", "ok", [(1, "K"), (14, "D_CG"), (-30, "D_RG")]),
    _combo("V1", "d", "ok", [(1, "K"), (12, "D_RG"), (-28, "h")]),
    _combo("V2", "", "ok", [(1, "psi"), (64, "h"), (-4, "delta"), (-8, "K")]),
    _combo("V3", "a", "ok", [(1, "psi"), (108, "delta"), (-192, "D_CN")]),
    _combo("V3", "b", "ok", [(1, "psi"), (132, "D_CN"), (-108, "D_CG")]),
    _combo("V3", "c", "ok", [(1, "psi"), (68, "D_CG"), (-132, "D_RG")]),
    _combo("V3", "d", "ok", [(1, "psi"), (72, "D_RG"), (-136, "h")]),
    _combo("V4", "", "ok", [(1, "psi"), (32, "h"), (-6, "K")]),
    _combo("V5", "", "ok",
           [(2, "F"), (12, "K"), (-8, "delta"), (-6, "psi")]),
    _combo("V6", "a", "ok", [(2, "F"), (328, "delta"), (-576, "D_CN")]),
    _combo("V6", "b", "ok", [(2, "F"), (408, "D_CN"), (-328, "D_CG")]),
    _combo("V6", "c", "ok", [(2, "F"), (216, "D_CG"), (-408, "D_RG")]),
    _combo("V6", "d", "ok", [(2, "F"), (240, "D_RG"), (-432, "h")]),
    _combo("V7", "", "ok", [(2, "F"), (-20, "K"), (128, "h")]),
    _combo("V8", "", "ok", [(2, "F"), (4, "K"), (-4, "psi")]),
    _combo("V9", "", "ok", [(1, "L"), (16, "K"), (-16, "delta"), (-8, "F")]),
    _combo("V10", "a", "ok", [(1, "L"), (880, "delta"), (-1536, "D_CN")]),
    _combo("V10", "b", "ok", [(1, "L"), (1104, "D_CN"), (-880, "D_CG")]),
    _combo("V10", "c", "ok", [(1, "L"), (592, "D_CG"), (-1104, "D_RG")]),
    _combo("V10", "d", "printed", [(1, "L"), (6724, "D_RG"), (-1184, "h")]),
    _combo("V10", "d", "corrected", [(1, "L"), (672, "D_RG"), (-1184, "h")]),
    _combo("V11", "", "ok", [(1, "L"), (384, "h"), (-56, "K")]),
    _combo("V12", "", "ok", [(1, "L"), (12, "psi"), (-8, "K"), (-12, "F")]),
    _combo("V13", "", "ok", [(1, "L"), (16, "K"), (-12, "psi")]),
    _combo("V14", "", "ok", [(1, "L"), (4, "psi"), (-8, "F")]),
    _combo("U1", "", "ok",
           [(1, "psi"), (192, "D_CN"), (-100, "delta"), (-8, "K")]),
    _combo("U2", "", "ok",
           [(2, "F"), (28, "K"), (-128, "h"), (-8, "psi")]),
    _combo("U3", "", "ok",
           [(4, "F"), (576, "D_CN"), (-316, "delta"), (-9, "psi")]),
    _combo("U4", "", "ok",
           [(9, "L"), (4608, "D_CN"), (-2576, "delta"), (-64, "F")]),
    _combo("U5", "", "ok",
           [(1, "L"), (Frac(6144, 7), "h"), (Frac(13824, 7), "D_CN"),
            (Frac(-896, 7), "K"), (Frac(-7920, 7), "delta")]),
    _combo("U6", "", "ok",
           [(2, "F"), (Frac(1152, 5), "h"), (Frac(2304, 5), "D_CN"),
            (-36, "K"), (Frac(-1312, 5), "delta")]),
    _combo("U7", "", "ok",
           [(1, "L"), (384, "h"), (36, "psi"), (-92, "K"), (-18, "F")]),
    _combo("U8", "", "ok",
           [(1, "L"), (160, "K"), (-36, "psi"), (-768, "h")]),
    _combo("U9", "", "ok", [(1, "L"), (12, "psi"), (-8, "K"), (-12, "F")]),
    _combo("U10", "", "ok",
           [(2, "F"), (44, "K"), (8, "delta"), (-10, "psi"), (-256, "h")]),
    _combo("U11", "", "ok",
           [(1, "L"), (16, "delta"), (24, "psi"), (-16, "F"), (-32, "K")]),
    _combo("U12", "", "ok",
           [(11, "L"), (-1408, "K"), (Frac(67584, 7), "h"),
            (Frac(-73728, 7), "D_CN"), (Frac(36752, 7), "delta"),
            (-224, "F"), (504, "psi")]),
    _combo("U13", "", "ok",
           [(1, "L"), (44, "psi"), (-120, "K"), (512, "h"), (-20, "F")]),
    _combo("U14", "", "ok",
           [(1, "L"), (-56, "psi"), (320, "K"), (Frac(-11776, 7), "h"),
            (Frac(-7680, 7), "D_CN"), (Frac(4400, 7), "delta")]),
    _combo("U15", "", "printed",
           [(1, "L"), (64, "delta"), (-208, "K"), (Frac(9728, 7), "h"),
            (Frac(-7680, 7), "D_CN"), (Frac(3728, 7), "delta"), (-24, "F")]),
    _combo("U15", "", "corrected",
           [(1, "L"), (64, "psi"), (-208, "K"), (Frac(9728, 7), "h"),
            (Frac(-7680, 7), "D_CN"), (Frac(3728, 7), "delta"), (-24, "F")]),
    _combo("U15", "reduced", "corrected",
           [(1, "L"), (-16, "delta"), (-208, "K"), (1024, "h"),
            (-24, "F"), (64, "psi")]),
]

COMBINATION_LINES: dict[str, list[ComboLine]] = {}
for _line in _CL:
    COMBINATION_LINES.setdefault(_line.measure, []).append(_line)


def combination_lines(measure_id: str) -> list[ComboLine]:
    """All recorded combination lines for a V or U measure."""
    try:
        return list(COMBINATION_LINES[measure_id])
    except KeyError:
        raise KeyError(f"no combination lines for {measure_id!r}") from None


def equivalent_expression(measure_id: str, pair, line: str | None = None,
                          status: str | None = None) -> float:
    """Evaluate a linear combination line for a V or U measure.

    By default picks the first line that is printed and correct, falling
    back to the corrected replacement.  Callers compare the result with
    the closed form; disagreement on a "printed" line is catalogued data,
    not an error.
    """
    a, b = positive_pair(pair)
    lines = combination_lines(measure_id)
    if line is not None:
        lines = [l for l in lines if l.label == line]
    if status is not None:
        lines = [l for l in lines if l.status == status]
    else:
        ok = [l for l in lines if l.status == "ok"]
        lines = ok or [l for l in lines if l.status == "corrected"] or lines
    if not lines:
        raise KeyError(f"no combination line {line!r}/{status!r} "
                       f"for {measure_id}")
    chosen = lines[0]
    return float(sum(float(c) * catalog.get(m)._at(a, b)
                     for c, m in chosen.terms))


def combo_line_exact(combo: ComboLine) -> bool:
    """Whether the line equals the closed form at the generator level."""
    return is_exact_combination(*combo.claim)


def fit_combination(measure_id: str, basis_ids: Iterable[str]):
    """Exact coefficients expressing a measure over a generator basis.

    Returns {basis id: Fraction} or None when no exact combination
    exists.  This is the fitting oracle used to confirm corrections to
    the printed combination lines.
    """
    basis_ids = list(basis_ids)
    cols = [catalog.get(mid).gen for mid in basis_ids]
    target = catalog.get(measure_id).gen
    sol = solve_exact(cols, target)
    if sol is None:
        return None
    return {mid: c for mid, c in zip(basis_ids, sol)}
