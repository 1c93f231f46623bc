"""Assembles every verification into one reproducible report.

The suite covers the ordering chains, the closed-form identities, the
53 residual decompositions with their sharp ratio constants, convexity
certificates, the combination tables, and the exponential series.  Every
identity is an ``Identity`` of claims sum(lhs) = sum(rhs) that one
checker proves exactly where the generators allow and samples on the
run's pairs; the sharp constants are proved, not sampled.  A run is
summarized as a JSON document whose checks are deterministic functions
of (seed, samples, tolerance); the errata list documents source-text
misprints and never affects the exit status.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__, analysis, cascade, catalog, generators, means
from .reporting import CheckResult, make_result

__all__ = [
    "AuditConfig", "ERRATA", "run_audit", "report_passed", "write_report",
    "load_report", "diff_reports",
]


@dataclass
class AuditConfig:
    """Knobs for one audit run."""

    chains: object = "all"          # "all" or a list of chain ids/prefixes
    samples: int = 100000
    seed: int = 42
    tolerance: float = 1e-12
    workers: int = 1

    def __post_init__(self):
        self.samples = int(self.samples)
        self.seed = int(self.seed)
        self.tolerance = float(self.tolerance)
        self.workers = int(self.workers)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.chain_ids = _select_chains(self.chains)


def _select_chains(selector) -> tuple[str, ...]:
    known = cascade.chains()
    if selector == "all" or selector is None:
        return known
    chosen: list[str] = []
    for token in selector:
        hits = [c for c in known if c == token or c.startswith(token)]
        if not hits:
            raise ValueError(f"no chain matches {token!r}; known: {known}")
        for h in hits:
            if h not in chosen:
                chosen.append(h)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Anchors: the first members of each generated family written in terms of
# catalog measures.  Forms are alternative expansions of the same value.

_ANCHORS = [
    ("Delta1", 0, [[(1, "delta")]]),
    ("Delta1", 1, [[(1, "D15")], [(1, "K"), (-2, "delta")]]),
    ("Delta1", 2, [[(1, "psi"), (-4, "K"), (4, "delta")]]),
    ("Delta1", 3, [[(1, "V5")],
                   [(2, "F"), (12, "K"), (-8, "delta"), (-6, "psi")]]),
    ("Delta2", 0, [[(1, "delta")]]),
    ("Delta2", 1, [[(2, "D21")], [(1, "psi"), (-4, "delta")]]),
    ("K1", 0, [[(1, "K")]]),
    ("K1", 1, [[(2, "D16")], [(1, "psi"), (-2, "K")]]),
    ("K1", 2, [[(1, "V8")], [(2, "F"), (4, "K"), (-4, "psi")]]),
    ("K1", 3, [[(1, "V12")],
               [(1, "L"), (12, "psi"), (-8, "K"), (-12, "F")]]),
    ("K2", 0, [[(1, "K")]]),
    # The source prints F - 2K for this one; the factor-2 repair is E14.
    ("K2", 1, [[(4, "D23")], [(2, "F"), (-4, "K")]]),
    ("Hgen", 0, [[(2, "h")]]),
    ("Hgen", 1, [[(1, "D11")], [(1, "K"), (-8, "h")]]),
    ("Hgen", 2, [[(1, "V4")], [(1, "psi"), (32, "h"), (-6, "K")]]),
    ("Hgen", 3, [[(1, "U2")],
                 [(2, "F"), (28, "K"), (-8, "psi"), (-128, "h")]]),
    ("Hgen", 4, [[(1, "U13")],
                 [(1, "L"), (44, "psi"), (-120, "K"), (512, "h"),
                  (-20, "F")]]),
    ("Lt", -1, [[(2, "delta")]]),
    ("Lt", 0, [[(1, "K")]]),
    ("Lt", 1, [[(Fraction(1, 2), "psi")]]),
    ("Lt", 2, [[(Fraction(1, 2), "F")]]),
    ("Lt", 3, [[(Fraction(1, 8), "L")]]),
    ("Mnew", 0, [[(Fraction(7, 2), "D1")], [(12, "D_CN"), (-7, "delta")]]),
    ("Mnew", 1, [[(1, "V1")], [(1, "K"), (26, "delta"), (-48, "D_CN")]]),
    ("Mnew", 2, [[(1, "U1")],
                 [(1, "psi"), (192, "D_CN"), (-100, "delta"), (-8, "K")]]),
    ("Mnew", 3, [[(1, "U10")],
                 [(2, "F"), (44, "K"), (8, "delta"), (-10, "psi"),
                  (-256, "h")]]),
    ("Mnew", 4, [[(1, "U15")]]),
]

# Fixed pairs for the exponential-series checks; kept close enough to the
# diagonal that thirty terms land far below the comparison tolerance.
_SERIES_PAIRS = [(1.2, 1.0), (2.0, 1.0), (4.0, 1.0), (1.0, 3.0),
                 (5.0, 2.0), (0.7, 1.3)]

_WITNESS_XS = [0.3, 0.9, 1.5, 4.0, 25.0]

_EXACT_PAIRS = [("U1", "V2", "Eq (30)/Eq (14)"),
                ("U9", "V12", "Eq (38)/Eq (24)")]

_W_ALIASES = [("W1", [(2, "delta")]), ("W5", [(8, "h")]), ("W6", [(1, "K")]),
              ("W7", [(Fraction(1, 2), "psi")]),
              ("W8", [(Fraction(1, 2), "F")]),
              ("W9", [(Fraction(1, 8), "L")])]


# ---------------------------------------------------------------------------
# Errata: misprints in the source text, each with the value that every
# consistency check (combinations, second derivatives, residuals) singles
# out as the intended one.  These entries are informational.

ERRATA = [
    {"id": "E1",
     "location": "Section 1, definition of the triangular discrimination",
     "description": "Delta(a,b) is printed as (a-b)^2/(a-b).",
     "suggested_correction": "Delta(a,b) = (a-b)^2/(a+b)."},
    {"id": "E2",
     "location": "Section 1, text after the derivative check of f_{L_t}",
     "description": "d f_{L_t}/dt > 0 is said to prove that f_{L_t} is "
                    "decreasing in t.",
     "suggested_correction": "Increasing in t, which is what Eq (7)'s "
                             "normalizations encode."},
    {"id": "E3",
     "location": "Section 2.1, list of f_{W_t} after Eq (11)",
     "description": "f_{W_8} is printed as (1/4) f_F with closed form "
                    "(x^2-1)^2/(2 x^{3/2}), which equals f_F itself; "
                    "position 8 of Eq (9) is (1/2) F.",
     "suggested_correction": "f_{W_8} = (1/2) f_F(x) = "
                             "(x^2-1)^2/(4 x^{3/2})."},
    {"id": "E4",
     "location": "Section 2.1, list of second derivatives f''_{W_t}",
     "description": "The f''_{W_8} numerator is printed as "
                    "14x^4 + 2x^2 + 15.",
     "suggested_correction": "15x^4 + 2x^2 + 15 (matches the exact second "
                             "derivative of (1/2) f_F and finite "
                             "differences)."},
    {"id": "E5a",
     "location": "Eqs (51)-(52)",
     "description": "The exponent of E_{Delta^1} is printed as "
                    "(a-b)^2/sqrt(ab), which is not the step ratio of "
                    "Eq (49); the series printed right above uses "
                    "((sqrt x - 1)^2/sqrt x)^t.",
     "suggested_correction": "E_{Delta^1} = Delta * "
                             "exp((sqrt a - sqrt b)^2 / sqrt(ab))."},
    {"id": "E5b",
     "location": "Section 3.3, display of E_{K^1}",
     "description": "Leading factor and exponent are interchanged: printed "
                    "(sqrt a - sqrt b)^2/sqrt(ab) * "
                    "exp((a-b)^2/sqrt(ab)).",
     "suggested_correction": "E_{K^1} = (a-b)^2/sqrt(ab) * "
                             "exp((sqrt a - sqrt b)^2/sqrt(ab))."},
    {"id": "E5c",
     "location": "Section 3.6, display of E_M",
     "description": "Leading factor printed as (a-b)^4/(a+b); the t = 0 "
                    "member of Eq (57) is (sqrt a - sqrt b)^4/(a+b).",
     "suggested_correction": "E_M = (sqrt a - sqrt b)^4/(a+b) * "
                             "exp((sqrt a - sqrt b)^2/sqrt(ab))."},
    {"id": "E6",
     "location": "Eq (21)",
     "description": "f_{V_9} is printed with an interior factor 1/16, "
                    "which makes the display equal to (1/16) f_{V_9}; it "
                    "contradicts V_9 = L + 16K - 16Delta - 8F and the "
                    "printed f''_{V_9}.",
     "suggested_correction": "f_{V_9}(x) = (sqrt x + 1)^4 "
                             "(sqrt x - 1)^8 / (x^2 (x+1))."},
    {"id": "E7",
     "location": "Eq (26)",
     "description": "f_{V_14} is printed with an interior factor 1/8, "
                    "making the display equal to (1/8) f_{V_14}; it "
                    "contradicts V_14 = L + 4Psi - 8F and the printed "
                    "f''_{V_14}.",
     "suggested_correction": "f_{V_14}(x) = (x+1)(sqrt x + 1)^2 "
                             "(sqrt x - 1)^6 / x^2."},
    {"id": "E8",
     "location": "Theorem 2.1 proof, part 17",
     "description": "The residual display prints the constant 1/4 in "
                    "front of V_7; the exact decomposition gives 1/16.",
     "suggested_correction": "(5/4) D^23 - D^24 = (1/16) V_7."},
    {"id": "E9",
     "location": "Section 2.6, fourth expansion of V_10",
     "description": "Printed V_10 = L + 6724 D_RG - 1184h; the "
                    "coefficient 6724 does not reproduce V_10.",
     "suggested_correction": "V_10 = L + 672 D_RG - 1184 h (and an exact "
                             "re-fit of the same basis returns 672)."},
    {"id": "E10",
     "location": "Section 2.6, expansion of U_15",
     "description": "Printed (1/7)(7L + 448Delta - 1456K + 9728h - "
                    "7680D_CN + 3728Delta - 168F) lists Delta twice and "
                    "does not reproduce U_15.",
     "suggested_correction": "Replace the first 448 Delta with 448 Psi; "
                             "equivalently U_15 = L - 16Delta - 208K + "
                             "1024h - 24F + 64Psi."},
    {"id": "E11",
     "location": "Section 2.1, sentence introducing the pyramid",
     "description": "The nine-member chain of Eq (11) is said to admit 45 "
                    "nonnegative differences.",
     "suggested_correction": "36 differences (9 choose 2), matching the "
                             "pyramid rows D^1..D^36."},
    {"id": "E12",
     "location": "Theorem 2.1 proof, part 5",
     "description": "The residual display is labeled (5/3) D^5 - D^9, "
                    "copying part 4's left-hand side; the derivation in "
                    "that part concerns (7/5) D^11 - D^12.",
     "suggested_correction": "(7/5) D^11 - D^12 = (1/5)(2W_6 + 5W_4 - "
                             "7W_5) = (2/5) V_1."},
    {"id": "E13",
     "location": "Theorem 2.1 proof, parts 13, 15, 19 and 20 "
                 "(residual displays)",
     "description": "Four residual displays write K_3, K_5, K_1 for "
                    "members of the W ladder (e.g. 4W_8 + 119W_2 - "
                    "123K_3).",
     "suggested_correction": "Read W_3, W_5, W_1 respectively; the "
                             "expansions then match the stated V "
                             "residuals exactly."},
    {"id": "E14",
     "location": "Section 3.4, particular cases of Eq (55)",
     "description": "K^2_1 = 4 D^23 is printed as equal to F - 2K; at "
                    "(a,b) = (4,1) the left side is 81/8 while F - 2K is "
                    "81/16.",
     "suggested_correction": "K^2_1 = 4 D^23 = 2(F - 2K)."},
    {"id": "E15",
     "location": "Section 3.1, witness polynomial A_1(x, t)",
     "description": "The x^2 coefficient is printed as 4(7t^2 + 10t + "
                    "16); with it, the factorization doubles the true "
                    "second derivative at every t.",
     "suggested_correction": "2(7t^2 + 10t + 16) x^2."},
    {"id": "E16",
     "location": "Section 3.6, factorization of f''_{M_t}",
     "description": "The prefactor is printed with (x-1)^{2t+2}; the "
                    "factorization then overshoots by (sqrt x + "
                    "1)^{2t+2}.",
     "suggested_correction": "Prefactor (sqrt x - 1)^{2t+2} / "
                             "(4 (x+1)^3 (sqrt x)^{t+5})."},
    {"id": "E17",
     "location": "Section 2.5, second-derivative list",
     "description": "The displays for f''_{U_12} and f''_{U_13} "
                    "duplicate the expression printed for f''_{U_10}.",
     "suggested_correction": "Recompute from Eqs (44) and (45); the "
                             "convexity certificates here use the exact "
                             "second derivatives."},
    {"id": "E18",
     "location": "Section 2.6 (expansions of U_9 and V_12)",
     "description": "U_9 and V_12 are the same measure: both equal "
                    "L + 12Psi - 8K - 12F with generator "
                    "(sqrt x - 1)^6 (x+1)^... duplicated across the two "
                    "stages.  Informational.",
     "suggested_correction": "None needed; noting the duplication avoids "
                             "double counting the second stage."},
    {"id": "E19",
     "location": "Eq (58)",
     "description": "The closed form 2Delta * exp((a+b)/(2 sqrt(ab))) "
                    "matches the weighting sum_{t>=-1} L_t/(t+1)! (with "
                    "L_{-1} = 2Delta); the naive reading sum_{t>=0} "
                    "L_t/t! sums to K * exp of the same argument "
                    "instead.  Informational index convention.",
     "suggested_correction": "State E_Delta = sum_{t=-1}^inf "
                             "L_t/(t+1)!."},
    {"id": "E20",
     "location": "Section 2.3, second-derivative list, f''_{V_9}",
     "description": "The numerator lists 32x^2 twice; the coefficient "
                    "pattern (6, 9, 32, 35, 60, 35, 32, 9, 6) is "
                    "palindromic in half powers.",
     "suggested_correction": "The second occurrence should be 32x; with "
                             "that repair the display equals the exact "
                             "f''_{V_9}."},
]


# ---------------------------------------------------------------------------
# Identity checks.  Every exact relation is one or more claims
# sum(c * s for c, s in lhs) == sum(c * s for c, s in rhs), whose symbols
# are mean letters or catalog ids; one checker proves and samples them all.

@dataclass(frozen=True)
class Identity:
    """One reported identity check.

    Each of ``claims`` is proved exactly when every symbol has an exact
    generator, then sampled on the run's pairs; ``unsampled`` claims are
    only proved, and each of ``misprints`` must fail its proof.
    """

    id: str
    ref: str
    tol: float
    claims: tuple
    unsampled: tuple = ()
    misprints: tuple = ()


def _claim_gap(lhs, rhs, a, b):
    """|L - R| / max(|L|, |R|, |t_1|, ..., |t_n|, 1e-300) per sampled pair.

    t_i = c_i * s_i(a, b), and L, R are the left-to-right sums of each
    side's terms.  Combinations like Psi - 4K + 4Delta cancel to a much
    higher diagonal order than their terms, so the residual is measured
    against the largest term as well as against the two sums.
    """
    scale = np.full(np.shape(a), 1e-300)
    sums = []
    for terms in (lhs, rhs):
        total = None
        for c, symbol in terms:
            t = float(c) * means.symbol_value(symbol, a, b)
            np.maximum(scale, np.abs(t), out=scale)
            total = t if total is None else total + t
        np.maximum(scale, np.abs(total), out=scale)
        sums.append(total)
    return np.abs(sums[0] - sums[1]) / scale


def _proof(claim, holds=True) -> bool | None:
    """Whether the exact verdict on a claim is ``holds``; None if unprovable."""
    lhs, rhs = claim
    if any(catalog.get(s).gen is None for _, s in (*lhs, *rhs)):
        return None
    return cascade.is_exact_combination(lhs, rhs) == holds


def _check_identity(ident: Identity, a, b) -> CheckResult:
    """Prove every claim of ``ident`` where possible, then sample it.

    The violation is the worst sampled gap, or inf when a proof fails; a
    failing check records its worst sample as the counterexample.
    """
    proofs = ([_proof(c) for c in ident.claims + ident.unsampled]
              + [_proof(c, holds=False) for c in ident.misprints])
    worst, where = 0.0, 0
    for lhs, rhs in ident.claims:
        gap = _claim_gap(lhs, rhs, a, b)
        i = int(np.argmax(gap))
        if gap[i] > worst or np.isnan(gap[i]):   # a NaN gap must fail
            worst, where = float(gap[i]), i
    violation = float("inf") if False in proofs else worst
    ces = []
    if not violation <= ident.tol:
        ces.append({"index": where, "a": float(a[where]),
                    "b": float(b[where]), "violation": worst})
    detail = ("exact identity fails" if False in proofs else
              "sampled only" if None in proofs else "proved exact")
    return make_result(ident.id, "identity", a.size, violation, ident.tol,
                       ces, ref=ident.ref, detail=detail)


def _identities(tol: float) -> list[Identity]:
    """The identity checks that precede the sharp constants, in order."""
    out = [Identity(f"identity:{ident}",
                    "Sec 1.1" if ident.startswith("item") else "Remark 2",
                    tol, ((lhs, rhs),))
           for ident, lhs, rhs in means.identity_table()]
    scales = cascade.PYRAMID_EQ_SCALES
    out.append(Identity(
        "identity:pyramid-common-value", "Eq (11a)", tol,
        tuple((((s, f"D{k}"),), ((scales[0], "D1"),))
              for k, s in enumerate(scales[1:], start=2))))
    out += [Identity(f"identity:{left}=={right}", ref, 1e-15,
                     ((((1, left),), ((1, right),)),))
            for left, right, ref in _EXACT_PAIRS]
    out.append(Identity("identity:W-aliases", "Eq (9)", tol,
                        tuple((((1, wid),), terms)
                              for wid, terms in _W_ALIASES)))
    out += [Identity(f"anchor:{fid}:{t}", catalog.get(f"{fid}:{t}").ref, tol,
                     tuple((((1, f"{fid}:{t}"),), terms) for terms in forms))
            for fid, t, forms in _ANCHORS]
    out += [Identity(f"decomposition:{part.id}", _part_ref(part), 1e-11,
                     (part.claim,))
            for part in cascade.theorem_parts()]
    return out


def _combinations(tol: float) -> list[Identity]:
    """One check per combination table: its canonical line is sampled."""
    out = []
    for mid in sorted(cascade.COMBINATION_LINES):
        lines = cascade.combination_lines(mid)
        exact = [line for line in lines if line.status != "printed"]
        canonical = next((line for line in exact if line.status == "ok"),
                         exact[0])
        out.append(Identity(
            f"combination:{mid}", "Sec 2.6", tol, (canonical.claim,),
            unsampled=tuple(l.claim for l in exact if l is not canonical),
            misprints=tuple(l.claim for l in lines if l.status == "printed")))
    return out


def _part_ref(part) -> str:
    theorem, _, index = part.id.partition(":")
    return f"Theorem {theorem} part {index}"


def _check_beta(part):
    """Prove that beta is the sharp constant of small <= beta*big.

    f''_big > 0 and beta f''_big - f''_small > 0 off x = 1 bound the ratio
    f''_small / f''_big below beta, and its exact limit at x = 1 is beta.
    """
    small = catalog.get(part.small).fpp
    big = catalog.get(part.big).fpp
    try:
        proved = (big.positive_off_one()
                  and (big * part.beta - small).positive_off_one()
                  and small.ratio_limit_at_1(big) == part.beta)
    except ZeroDivisionError:   # f''_small / f''_big diverges at x = 1
        proved = False
    return make_result(f"beta:{part.id}", "ratio-constant", 0,
                       0.0 if proved else float("inf"), 0.0,
                       ref=_part_ref(part), detail=f"beta = {part.beta}")


def _check_series(fid, tol=1e-12):
    form = generators.EXP_FORMS[fid]
    worst = 0.0
    for pair in _SERIES_PAIRS:
        a, b = pair
        if fid == "Lt":
            closed = generators.exp_L_representation(pair)
            partial = generators.exp_L_series_partial(pair, 30)
            members = [catalog.get(f"Lt:{t}").value(a, b)
                       for t in range(-1, 5)]
        else:
            closed = generators.exp_representation(fid, pair)
            partial = generators.exp_series_partial(fid, pair, 30)
            members = [generators.family(fid, t, pair) for t in range(6)]
        ratio = generators.step_ratio(fid, pair)
        worst = max(worst, abs(partial - closed) / max(abs(closed), 1e-300))
        for prev, cur in zip(members, members[1:]):
            worst = max(worst, abs(cur / prev / ratio - 1.0))
        lead = form["lead"](a, b)
        worst = max(worst,
                    abs(members[0] - lead) / max(abs(lead), 1e-300))
    a0, b0 = 4.0, 1.0
    display_ok = (
        abs(form["printed_lead"](a0, b0) - form["lead"](a0, b0))
        <= tol * abs(form["lead"](a0, b0))
        and abs(form["printed_arg"](a0, b0) - form["arg"](a0, b0))
        <= tol * abs(form["arg"](a0, b0)))
    detail = ("printed display confirmed" if display_ok else
              "printed display is not the series limit (see errata E5)")
    return make_result(f"series:{fid}", "series", len(_SERIES_PAIRS) * 31,
                       worst, tol, ref=form["ref"], detail=detail)


def _check_witness(fid, tol=1e-12):
    form = generators.WITNESS_FORMS[fid]
    worst = 0.0
    printed_min_gap = float("inf")
    has_printed = form.get("printed_witness") or form.get("printed_prefactor")
    for t in range(5):
        fpp = catalog.get(f"{fid}:{t}").fpp
        for x in _WITNESS_XS:
            truth = float(fpp(x))
            recon = generators.witness_second_derivative(fid, x, t)
            worst = max(worst, abs(recon - truth) / max(abs(truth), 1e-300))
            if has_printed:
                printed = generators.witness_second_derivative(
                    fid, x, t, printed=True)
                printed_min_gap = min(
                    printed_min_gap,
                    abs(printed - truth) / max(abs(truth), 1e-300))
    if has_printed:
        detail = (f"printed factorization deviates by at least "
                  f"{printed_min_gap:.3g} relative (see errata)")
        if printed_min_gap <= tol:
            worst = float("inf")
            detail = "printed factorization unexpectedly matches"
    else:
        detail = "printed factorization matches the derived one"
    return make_result(f"witness:{fid}", "identity", 5 * len(_WITNESS_XS),
                       worst, tol, ref=catalog.get(f"{fid}:0").ref,
                       detail=detail)


def _check_w8_second_derivative(tol=1e-6):
    # High-precision central differences carry ~(h/x)^2 = 1e-10 relative
    # truncation, so the cross-check tolerance matches the certificates.
    xs = _WITNESS_XS
    worst = 0.0
    printed_min = float("inf")
    for x in xs:
        truth = cascade.W_second_derivative(8, x)
        fd = analysis._fd2_mp(catalog.get("W8"), x)
        worst = max(worst, abs(truth - fd) / max(abs(truth), 1e-300))
        printed = cascade.W_FPP_PRINTED[8](x)
        printed_min = min(printed_min,
                          abs(printed - truth) / max(abs(truth), 1e-300))
    detail = (f"printed numerator deviates by at least {printed_min:.3g} "
              "relative (erratum E4)")
    if printed_min <= tol:
        worst = float("inf")
        detail = "printed numerator unexpectedly matches"
    return make_result("identity:W8-second-derivative", "identity", len(xs),
                       worst, tol, ref="Sec 2.1", detail=detail)


def _negative_control(config):
    probe = analysis.counterexample_search(
        [(1.0, "W2"), (1.0, "W1")], samples=100, seed=config.seed,
        tol=config.tolerance, check_id="negative-control:W2<=W1",
        kind="negative-control", ref="Eq (9) reversed")
    found = probe.max_violation > config.tolerance
    return CheckResult(
        id="negative-control:W2<=W1", kind="negative-control",
        samples=100, max_violation=probe.max_violation,
        verdict="pass" if found else "fail",
        counterexamples=probe.counterexamples[:1],
        ref="Eq (9) reversed",
        detail="a false ordering must be caught within 100 samples")


# ---------------------------------------------------------------------------
# Suite assembly.

def run_audit(config: AuditConfig) -> dict:
    """Run every check under the given config and return the report."""
    checks: list[CheckResult] = []
    tol = config.tolerance
    a, b = analysis.sample_pairs(config.samples, config.seed)

    for cid in config.chain_ids:
        checks.append(cascade.check_chain(
            cascade.get_chain(cid), a, b, tol, config.workers))

    for ident in _identities(tol):
        checks.append(_check_identity(ident, a, b))
    for part in cascade.theorem_parts():
        checks.append(_check_beta(part))

    for i in range(1, 10):
        checks.append(analysis.certify_convexity(f"W{i}"))
    for t in range(1, 15):
        checks.append(analysis.certify_convexity(f"V{t}"))
    for t in range(1, 16):
        checks.append(analysis.certify_convexity(f"U{t}"))
    for fid in catalog.FAMILY_IDS:
        for t in range(5):
            checks.append(analysis.certify_convexity(f"{fid}:{t}"))
    checks.append(_check_w8_second_derivative())

    for ident in _combinations(tol):
        checks.append(_check_identity(ident, a, b))

    for fid in ("Delta1", "Delta2", "K1", "K2", "Hgen", "Mnew", "Lt"):
        checks.append(_check_series(fid))
    for fid in generators.WITNESS_FORMS:
        checks.append(_check_witness(fid))

    checks.append(_negative_control(config))

    return {
        "header": {
            "version": __version__,
            "seed": config.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "checks": [c.to_json() for c in checks],
        "errata": [dict(e) for e in ERRATA],
    }


def report_passed(report: dict) -> bool:
    return all(c["verdict"] == "pass" for c in report["checks"])


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def diff_reports(report_a: dict, report_b: dict) -> list[str]:
    """Lines describing checks whose verdicts differ between two reports."""
    va = {c["id"]: c["verdict"] for c in report_a.get("checks", [])}
    vb = {c["id"]: c["verdict"] for c in report_b.get("checks", [])}
    lines = []
    for cid in sorted(va.keys() | vb.keys()):
        da, db = va.get(cid, "<absent>"), vb.get(cid, "<absent>")
        if da != db:
            lines.append(f"{cid}: {da} -> {db}")
    return lines
