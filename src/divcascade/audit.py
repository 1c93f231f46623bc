"""Assembles every verification into one reproducible report.

The suite covers the ordering chains, the closed-form identities, the
53 residual decompositions with their sharp ratio constants, convexity
certificates, the combination tables, the exponential series and the
convexity witnesses.  Every exact claim is one sum of c * form that
``cascade`` proves: an identity says the sum is zero, an ordering that
it is positive off x = 1.  Chain links are proved and also scanned;
every identity is an ``Identity`` row that one checker proves and,
where it names measures, samples.  The negative control, a reversed
link, must fail both its proof and its scan.  A run is summarized as
a JSON document whose checks are deterministic functions of (seed,
samples, tolerance); the errata list documents source-text misprints
and never affects the exit status.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, analysis, cascade, catalog, generators, means
from .ratfun import RatU
from .reporting import (CheckResult, diff_reports, load_report, make_result,
                        report_passed, write_report)

__all__ = [
    "AuditConfig", "ERRATA", "run_audit", "report_passed", "write_report",
    "load_report", "diff_reports",
]


@dataclass
class AuditConfig:
    """Knobs for one audit run.

    ``chains`` is "all" (or None), or chain ids and prefixes in a
    comma-separated string or a list of them.  ``workers`` (None: the
    usable CPU count) is the number of forked processes that scan the
    sampled pass while the exact proofs run; 1 runs everything in this
    process, one step after another.
    """

    chains: object = "all"
    samples: int = 100000
    seed: int = 42
    tolerance: float = 1e-12
    workers: int | None = None

    def __post_init__(self):
        self.samples = analysis._count("samples", self.samples)
        self.seed = analysis._integer("seed", self.seed)
        self.tolerance = analysis._real("tolerance", self.tolerance)
        self.workers = (_usable_cpus() if self.workers is None
                        else analysis._count("workers", self.workers))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.tolerance < float("inf"):
            raise ValueError("tolerance must be positive and finite")
        self.chain_ids = _select_chains(self.chains)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _select_chains(selector) -> tuple[str, ...]:
    """The chain ids a selection names, in the order first named.

    A selection is None, a string, or a sequence of strings, each holding
    chain ids or prefixes, comma separated.  None or "all" selects every
    chain; one that names nothing, or a token matching no chain, raises
    ``ValueError``.
    """
    known = cascade.chains()
    if selector is None:
        return known
    tokens = [token for text in ([selector] if isinstance(selector, str)
                                 else selector)
              for token in text.split(",") if token]
    if tokens == ["all"]:
        return known
    if not tokens:
        raise ValueError(f"no chain selected by {selector!r}")
    chosen: list[str] = []
    for token in tokens:
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
                    "second derivative only at t = 0.  For t = 1..4 it "
                    "exceeds the true second derivative off x = 1, by a "
                    "ratio of 1.30, 1.23, 1.21 and 1.20 at x = 2.",
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
# are mean letters, catalog ids or exact forms; one checker proves them
# all and samples those that name measures.

@dataclass(frozen=True)
class Identity:
    """One reported identity check.

    Each of ``claims`` is proved exactly, then sampled on the run's pairs;
    ``unsampled`` claims are only proved, and each of ``misprints`` must
    fail its proof.  A check with no sampled claims reports 0 samples.
    ``detail`` is the finding of a check whose proofs all hold.
    """

    id: str
    ref: str
    tol: float
    claims: tuple
    unsampled: tuple = ()
    misprints: tuple = ()
    kind: str = "identity"
    detail: str = "proved exact"


def _check_identity(ident: Identity, sample: analysis.Sample,
                    folds=None, proved: bool | None = None) -> CheckResult:
    """Prove every claim of ``ident``, then sample it.

    The scan is ``folds``, the claims' from a shared ``start_scan``
    pass, and the proof verdict is ``proved``, ``_identity_proved(ident)``,
    if given.  The violation is the worst sampled gap, or inf when a
    proof fails; a failing check with sampled claims records its worst
    sample as the counterexample.
    """
    if proved is None:
        proved = _identity_proved(ident)
    total = analysis.Fold(0.0)
    if folds is None:
        folds = analysis.scan_claims(_equalities(ident), sample)
    for fold in folds:
        total.absorb(fold)
    worst, where = total.worst, total.index
    violation = worst if proved else float("inf")
    ces = []
    if ident.claims and not violation <= ident.tol:
        (a,), (b,) = sample.pairs(where, where + 1)
        ces.append({"index": where, "a": float(a), "b": float(b),
                    "violation": worst})
    detail = ident.detail if proved else "exact identity fails"
    return make_result(ident.id, ident.kind,
                       sample.size if ident.claims else 0, violation,
                       ident.tol, ces, ref=ident.ref, detail=detail)


def _identity_proved(ident: Identity) -> bool:
    """Every claim is exact and every misprint is not."""
    return (all(cascade.is_exact_combination(*c)
                for c in ident.claims + ident.unsampled)
            and not any(cascade.is_exact_combination(*c)
                        for c in ident.misprints))


def _equalities(ident: Identity) -> list:
    return [analysis.Equality(lhs, rhs, ident.tol)
            for lhs, rhs in ident.claims]


def _identities(tol: float) -> list[Identity]:
    """The identity checks that precede the sharp constants, in order."""
    out = [Identity(f"identity:{ident}",
                    "Sec 1.1" if ident.startswith("item") else "Remark 2",
                    tol, ((lhs, rhs),))
           for ident, lhs, rhs in means.identity_table()]
    out.append(Identity("identity:pyramid-common-value", "Eq (11a)", tol,
                        cascade.PYRAMID_EQ_CLAIMS))
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
                     (part.claim,), misprints=part.misprints)
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

    f''_big > 0 and f''_small <= beta f''_big off x = 1 bound the ratio
    f''_small / f''_big by beta, and its exact limit at x = 1 is beta.
    """
    small = catalog.get(part.small).fpp
    big = catalog.get(part.big).fpp
    try:
        proved = (big.positive_off_one()
                  and cascade.is_exact_ordering(((1, small),),
                                                ((part.beta, big),))
                  and small.ratio_limit_at_1(big) == part.beta)
    except ZeroDivisionError:   # f''_small / f''_big diverges at x = 1
        proved = False
    return make_result(f"beta:{part.id}", "ratio-constant", 0,
                       0.0 if proved else float("inf"), 0.0,
                       ref=_part_ref(part), detail=f"beta = {part.beta}")


def _w8_printed() -> Identity:
    """The printed W8'' must differ from the exact one (erratum E4)."""
    return Identity("identity:W8-second-derivative", "Sec 2.1", 1e-6, (),
                    misprints=((((1, cascade.W_FPP_PRINTED[8]),),
                                ((1, catalog.get("W8").fpp),)),))


def _printed_forms() -> list[Identity]:
    """The series and witness rows of the generated families, every t.

    A family is lead * B^t, so B == r_F makes its series lead * exp(r_F).
    f''(lead * B^t) = B^(t-2) (Q0 + t Q1 + t^2 Q2) by Leibniz, which is
    P * B^t * (W0 + t W1 + t^2 W2) for every t when P B^2 W_k == Q_k for
    k = 0, 1, 2.  Each printed variant is a misprint for t = 0..4.
    """
    out = [Identity(f"series:{fid}", generators.EXP_FORMS[fid]["ref"],
                    1e-12, (), unsampled=(
                        (((1, RatU(*catalog.FAMILY_FORMS[fid][1])),),
                         ((1, generators.STEP_RATIOS[fid]),)),),
                    kind="series", detail="proved exact for every t")
           for fid in catalog.FAMILY_IDS + ("Lt",)]
    for fid, form in generators.WITNESS_FORMS.items():
        lead, ratio = (RatU(*pq) for pq in catalog.FAMILY_FORMS[fid])
        d_lead, d_ratio = lead.dx(), ratio.dx()
        leibniz = (d_lead.dx() * ratio * ratio,
                   2 * d_lead * d_ratio * ratio
                   + lead * d_ratio.dx() * ratio - lead * d_ratio * d_ratio,
                   lead * d_ratio * d_ratio)
        pb2 = form["prefactor"] * ratio * ratio
        printed = {"printed_witness", "printed_prefactor"} & form.keys()
        out.append(Identity(
            f"witness:{fid}", catalog.get(f"{fid}:0").ref, 1e-12, (),
            unsampled=tuple((((1, pb2 * RatU(w)),), ((1, q),))
                            for w, q in zip(form["witness"], leibniz)),
            misprints=tuple(
                (((1, generators.witness_fpp(fid, t, printed=True)),),
                 ((1, catalog.get(f"{fid}:{t}").fpp),))
                for t in range(5) if printed),
            detail="proved exact for every t"))
    return out


def _negative_control(config):
    """The reversed link W2 <= W1 must fail its proof and its scan."""
    lo, hi = (1, "W2"), (1, "W1")
    worst, records = analysis.scan_chain_terms(
        (lo, hi), analysis.Sample.draw(100, config.seed), config.tolerance)
    found = (worst > config.tolerance
             and not cascade.is_exact_ordering((lo,), (hi,)))
    return CheckResult(
        id="negative-control:W2<=W1", kind="negative-control",
        samples=100, max_violation=worst,
        verdict="pass" if found else "fail",
        counterexamples=cascade.named_links((lo, hi), records[:1]),
        ref="Eq (9) reversed", detail="a false ordering must fail its "
                                      "proof and be caught within 100 samples")


# ---------------------------------------------------------------------------
# Suite assembly.

def _convexity_ids() -> list[str]:
    """The divergences whose convexity the audit certifies, in order."""
    return ([f"W{i}" for i in range(1, 10)] + [f"V{t}" for t in range(1, 15)]
            + [f"U{t}" for t in range(1, 16)]
            + [f"{fid}:{t}" for fid in catalog.FAMILY_IDS for t in range(5)])


def run_audit(config: AuditConfig) -> dict:
    """Run every check under the given config and return the report.

    One ``analysis.start_scan`` pass samples every chain and identity
    claim.  With ``config.workers`` > 1 it scans in forked processes
    while this one runs every exact proof (links, identities, beta
    constants, convexity, the negative control); with one worker, or
    with another Python thread alive, the scan runs here after the
    proofs, in this process.  The checks are assembled from
    the joined folds and the proof verdicts, in the report's fixed
    order.
    """
    tol = config.tolerance
    sample = analysis.Sample.draw(config.samples, config.seed)
    chains = [cascade.get_chain(cid) for cid in config.chain_ids]
    idents = _identities(tol)
    tables = [_w8_printed()] + _combinations(tol) + _printed_forms()
    join = analysis.start_scan(
        [analysis.Ordering(chain.terms, tol) for chain in chains]
        + [eq for ident in idents + tables for eq in _equalities(ident)],
        sample, config.workers)
    try:
        links = [cascade.chain_proved(chain) for chain in chains]
        proofs = [_identity_proved(ident) for ident in idents + tables]
        betas = [_check_beta(part) for part in cascade.theorem_parts()]
        convexity = [analysis.certify_convexity(mid)
                     for mid in _convexity_ids()]
        control = _negative_control(config)
    finally:                    # no helper is left busy if a proof raises
        folds = iter(join())

    chains = [cascade.check_chain(chain, sample, tol, fold=next(folds),
                                  proved=proved)
              for chain, proved in zip(chains, links)]
    checked = [_check_identity(ident, sample,
                               [next(folds) for _ in ident.claims], proved)
               for ident, proved in zip(idents + tables, proofs)]
    identities, tables = checked[:len(idents)], checked[len(idents):]
    checks = chains + identities + betas + convexity + tables + [control]

    return {
        "header": {
            "version": __version__,
            "seed": config.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "checks": [c.to_json() for c in checks],
        "errata": [dict(e) for e in ERRATA],
    }
