"""The argument contract of every public entry point.

Each name in the package's ``_EXPORTS`` has a row here.  A constant or
an exception class is listed as such.  A callable's row gives arguments
it accepts and the kind of each parameter that an argument rule of
``catalog`` guards; hypothesis draws bad values of that kind, and each
must raise ``ValueError`` or ``TypeError`` with a message naming the
parameter.  A name with no row fails, so no entry point skips the
contract.  The scans and the audit refuse before they sample, so only
their refusals run here.
"""

import inspect
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divcascade
from divcascade import (analysis, audit, cascade, catalog, discriminations,
                        distributions, generators, means, reporting)


@dataclass(frozen=True)
class Kind:
    """Bad values of one kind of parameter, and what a refusal's message
    names: the parameter itself unless ``names`` says otherwise."""

    bad: st.SearchStrategy
    names: str | None = None


_FLAGS = [True, False, np.True_, np.array(False)]
_NOT_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan),
               np.array(math.inf)]
_NOT_INTEGERS = st.sampled_from(
    _FLAGS + _NOT_FINITE + ["2", 2.0, 2.5, np.float64(3.0), np.array(2.5),
                            Fraction(3)])
_NOT_REALS = st.sampled_from(_FLAGS + _NOT_FINITE + [
    "1e-3", None, np.array(1e-3), 1j, 10**400, -10**400])
_NOT_POSITIVE = st.one_of(
    _NOT_REALS, st.floats(max_value=0.0), st.integers(max_value=0),
    st.sampled_from([np.float64(-1.0), np.int64(0), Fraction(-1, 3)]))


def _integer(lo, hi=math.inf) -> Kind:
    """An integer in lo..hi; an integral float is not one."""
    out = [st.integers(max_value=lo - 1), st.just(np.int64(lo - 1))]
    if hi != math.inf:
        out += [st.integers(min_value=hi + 1), st.just(10**400)]
    return Kind(st.one_of(_NOT_INTEGERS, *out))


def _family(lo, hi) -> Kind:
    """A family parameter in lo..hi: an integer, or a float of integer
    value."""
    return Kind(st.one_of(
        st.sampled_from(_FLAGS + _NOT_FINITE + ["2", None, np.array(2.5)]),
        st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda v: not v.is_integer()),
        st.integers(max_value=lo - 1), st.integers(min_value=hi + 1),
        st.just(float(hi + 1)), st.just(10**400)))


COUNT, SEED = _integer(1), _integer(0)
TOL = Kind(_NOT_REALS)                       # a finite real
POSITIVE = Kind(_NOT_POSITIVE)               # a positive finite real
# One of two scalar parameters a and b; a numpy array is evaluated as it
# is, where the entry point takes arrays, so none is drawn.
COORDINATE = Kind(_NOT_POSITIVE.filter(
    lambda v: not isinstance(v, np.ndarray)), names="(a, b)")
# The point x of an evaluator, which evaluates an array as it is too.
X = Kind(COORDINATE.bad)
PAIR = Kind(st.one_of(
    st.tuples(_NOT_POSITIVE, st.just(2.0)),
    st.tuples(st.just(2.0), _NOT_POSITIVE),
    st.sampled_from([None, "ab", (1.0, 2.0, 3.0), (1.0,), 5,
                     np.array([1.0, 2.0, 3.0])])))
# A sequence of probability entries, one of which is not a real number.
ENTRIES = Kind(st.sampled_from(_FLAGS + ["0.5", None, np.array(0.5)]).map(
    lambda v: [0.5, v, 0.5]), names="entry 1")

# The same for a ``ProbVector``, whose entries must be positive finite
# floats: no other real number is one.
FLOATS = Kind(st.one_of(_NOT_POSITIVE, st.sampled_from([1, Fraction(1, 2)]))
              .map(lambda v: (0.5, v, 0.5)), names="entry 1")

CONSTANT, EXCEPTION = "constant", "exception"
# A callable none of whose parameters is of a kind above.
FREE = (None, {}, {})

_PAIR = (4.0, 1.0)
_P, _Q = [0.5, 0.3, 0.2], [0.2, 0.5, 0.3]

# name -> CONSTANT, EXCEPTION, FREE or (call, good arguments, kinds).  A
# class's row is its constructor's, but for Measure, whose constructor
# takes no argument of a kind, the row is its ``value`` method's.
ROWS = {
    "certify_convexity": FREE,
    "estimate_sup_ratio": FREE,
    "sample_pairs": (analysis.sample_pairs, dict(n=10, seed=0),
                     dict(n=_integer(0), seed=SEED)),
    "AuditConfig": (audit.AuditConfig,
                    dict(samples=100, seed=1, tolerance=1e-12, workers=1),
                    dict(samples=COUNT, seed=SEED, tolerance=POSITIVE,
                         workers=COUNT)),
    "ERRATA": CONSTANT,
    "run_audit": FREE,
    "CHAINS": CONSTANT,
    "THEOREM_PARTS": CONSTANT,
    "Chain": FREE,
    "audit_chain": (cascade.audit_chain,
                    dict(chain="means", samples=100, seed=0, tol=1e-12,
                         workers=1),
                    dict(samples=COUNT, seed=SEED, tol=TOL, workers=COUNT)),
    "beta_constant": FREE,
    "chain_from_dict": FREE,
    "chains": FREE,
    "combination_lines": FREE,
    "equivalent_expression": (cascade.equivalent_expression,
                              dict(measure_id="V1", pair=_PAIR),
                              dict(pair=PAIR)),
    "fit_combination": FREE,
    "get_chain": FREE,
    "pyramid_diff": (cascade.pyramid_diff, dict(k=3, pair=_PAIR),
                     dict(k=_integer(1, 36), pair=PAIR)),
    "pyramid_equalities": (cascade.pyramid_equalities,
                           dict(pair=_PAIR, tol=1e-12),
                           dict(pair=PAIR, tol=TOL)),
    "residual_decompositions": (cascade.residual_decompositions,
                                dict(part="2.1:1", pair=_PAIR, tol=1e-11),
                                dict(pair=PAIR, tol=TOL)),
    "theorem_parts": FREE,
    "FAMILY_IDS": CONSTANT,
    "Measure": (lambda a, b: catalog.get("D_AH").value(a, b),
                dict(a=4.0, b=1.0), dict(a=COORDINATE, b=COORDINATE)),
    "all_ids": FREE,
    "get": FREE,
    "try_get": FREE,
    "A7": (discriminations.A7, dict(x=2.0, t=3),
           dict(x=X, t=_family(*catalog.LT_T_RANGE))),
    "L_t": (discriminations.L_t, dict(t=3, pair=_PAIR),
            dict(t=_family(*catalog.LT_T_RANGE), pair=PAIR)),
    "base": (discriminations.base, dict(measure_id="delta", a=4.0, b=1.0),
             dict(a=COORDINATE, b=COORDINATE)),
    "base_ids": FREE,
    "topsoe_delta": (discriminations.topsoe_delta, dict(t=2, p=_P, q=_Q),
                     dict(t=_family(1, 64), p=ENTRIES, q=ENTRIES)),
    "NonPositiveEntry": EXCEPTION,
    "ProbVector": (distributions.ProbVector, dict(entries=(0.5, 0.5)),
                   dict(entries=FLOATS)),
    "SumOutOfTolerance": EXCEPTION,
    "divergence": (distributions.divergence,
                   dict(measure="delta", p=_P, q=_Q),
                   dict(p=ENTRIES, q=ENTRIES)),
    "load_distribution": FREE,
    "sample_simplex": (distributions.sample_simplex,
                       dict(n=3, rng=np.random.default_rng(0), floor=1e-9),
                       dict(n=_integer(2), floor=TOL)),
    "validate": (distributions.validate, dict(raw=_P, eps=1e-9),
                 dict(raw=ENTRIES, eps=TOL)),
    "EXP_FORMS": CONSTANT,
    "WITNESS_FORMS": CONSTANT,
    "convexity_witness": (generators.convexity_witness,
                          dict(family_id="K1", x=2.0, t=3),
                          dict(x=X, t=_family(0, 64))),
    "exp_L_representation": (generators.exp_L_representation,
                             dict(pair=_PAIR), dict(pair=PAIR)),
    "exp_L_series_partial": (generators.exp_L_series_partial,
                             dict(pair=_PAIR, n=4),
                             dict(pair=PAIR, n=_integer(-1))),
    "exp_representation": (generators.exp_representation,
                           dict(family_id="K1", pair=_PAIR),
                           dict(pair=PAIR)),
    "exp_series_partial": (generators.exp_series_partial,
                           dict(family_id="K1", pair=_PAIR, n=4),
                           dict(pair=PAIR, n=_integer(0))),
    "family": (generators.family, dict(family_id="Hgen", t=3, pair=_PAIR),
               dict(t=_family(0, 64), pair=PAIR)),
    "step_ratio": (generators.step_ratio, dict(family_id="Lt", pair=_PAIR),
                   dict(pair=PAIR)),
    "witness_second_derivative": (generators.witness_second_derivative,
                                  dict(family_id="Mnew", x=2.0, t=3),
                                  dict(x=X, t=_family(0, 64))),
    "mean": (means.mean, dict(kind="A", a=4.0, b=1.0),
             dict(a=COORDINATE, b=COORDINATE)),
    "mean_difference": (means.mean_difference,
                        dict(bigger="A", smaller="G", a=4.0, b=1.0),
                        dict(a=COORDINATE, b=COORDINATE)),
    "mean_generator": (means.mean_generator, dict(kind="A", x=2.0),
                       dict(x=X)),
    "verify_mean_identities": (means.verify_mean_identities,
                               dict(a=4.0, b=1.0),
                               dict(a=COORDINATE, b=COORDINATE)),
    "diff_reports": FREE,
    "write_report": FREE,
}

# Their accepted arguments would sample or prove: only refusals run.
_REFUSALS_ONLY = {"audit_chain"}

_PROBED = sorted(name for name, row in ROWS.items()
                 if isinstance(row, tuple) and row[2])
_EXPORTED = {name: getattr(divcascade, name)
             for names in divcascade._EXPORTS.values()
             for name in names.split()}


def test_every_export_has_a_row():
    assert set(ROWS) == set(_EXPORTED)
    for name, row in ROWS.items():
        obj = _EXPORTED[name]
        if row == CONSTANT:
            assert not callable(obj), name
        elif row == EXCEPTION:
            assert issubclass(obj, Exception), name
        else:
            assert callable(obj), name


@pytest.mark.parametrize("name", _PROBED)
def test_a_row_names_real_parameters_and_accepts_its_arguments(name):
    call, good, kinds = ROWS[name]
    params = inspect.signature(call).parameters
    assert set(kinds) <= set(good) <= set(params)
    if name != "Measure":
        assert call is _EXPORTED[name]
    if name not in _REFUSALS_ONLY:
        call(**good)


@pytest.mark.parametrize("name", _PROBED)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_bad_argument_is_refused_naming_its_parameter(name, data):
    call, good, kinds = ROWS[name]
    param = data.draw(st.sampled_from(sorted(kinds)), label="parameter")
    kind = kinds[param]
    value = data.draw(kind.bad, label=param)
    with pytest.raises((ValueError, TypeError)) as err:
        call(**{**good, param: value})
    message = str(err.value)
    names = kind.names or param
    assert re.search(rf"(?<![\w.]){re.escape(names)}(?!\w)", message), (
        param, value, message)


# ---------------------------------------------------------------------------
# A pair is checked once, at the public edge; after that each step is a
# plain lookup.

_PAIR_TAKERS = sorted(
    name for name, row in ROWS.items() if isinstance(row, tuple)
    and name not in _REFUSALS_ONLY and ("pair" in row[1] or {"a", "b"}
                                        <= set(row[1])))
# Scalar evaluators the package does not export, with good arguments.
_MORE_PAIR_TAKERS = {
    "cascade.W": (cascade.W, dict(i=9, pair=_PAIR)),
    "cascade.V": (cascade.V, dict(t=14, pair=_PAIR)),
    "cascade.U": (cascade.U, dict(t=15, pair=_PAIR)),
    "equivalent_expression U12": (cascade.equivalent_expression,
                                  dict(measure_id="U12", pair=_PAIR)),
}


def _pair_checks(monkeypatch, call, kwargs) -> int:
    """How many times one call runs ``catalog.positive_pair``, under any
    module's name for it."""
    real, seen = catalog.positive_pair, []

    def counted(pair):
        seen.append(pair)
        return real(pair)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("divcascade.")
                and getattr(module, "positive_pair", None) is real):
            monkeypatch.setattr(module, "positive_pair", counted)
    call(**kwargs)
    return len(seen)


def test_the_pair_takers_are_the_scalar_evaluators():
    assert _PAIR_TAKERS == [
        "L_t", "Measure", "base", "equivalent_expression",
        "exp_L_representation", "exp_L_series_partial",
        "exp_representation", "exp_series_partial", "family", "mean",
        "mean_difference", "pyramid_diff", "pyramid_equalities",
        "residual_decompositions", "step_ratio", "verify_mean_identities"]


@pytest.mark.parametrize("name", _PAIR_TAKERS + sorted(_MORE_PAIR_TAKERS))
def test_a_pair_taker_checks_its_pair_once(monkeypatch, name):
    call, good = (_MORE_PAIR_TAKERS[name] if name in _MORE_PAIR_TAKERS
                  else ROWS[name][:2])
    assert _pair_checks(monkeypatch, call, good) == 1


def test_a_divergence_checks_no_pair_after_validate(monkeypatch):
    call, good, _ = ROWS["divergence"]
    assert _pair_checks(monkeypatch, call, good) == 0
