"""Mean-difference divergence measures and their verification suite.

The catalog exposes seven means, their 21 pairwise differences, the
common-scale ladder W1..W9 with its 36 pyramid differences, the
residual measures V1..V14 and U1..U15, and six parametric generator
families, all backed by exact rational generators in sqrt(x).  The
audit machinery proves every ordering chain, decomposition identity,
ratio constant, and convexity certificate and writes a deterministic
JSON report.  Importing the package loads no submodule: an exported
name imports its home module on first access (PEP 562).
"""

import sys

# The one place the version is written; pyproject.toml reads it from here.
__version__ = "0.1.0"

# Home module -> the names the package exports from it.
_EXPORTS = {
    "analysis": "certify_convexity estimate_sup_ratio sample_pairs",
    "audit": "AuditConfig ERRATA run_audit",
    "cascade": "CHAINS THEOREM_PARTS Chain audit_chain beta_constant "
               "chain_from_dict chains combination_lines "
               "equivalent_expression fit_combination get_chain pyramid_diff "
               "pyramid_equalities residual_decompositions theorem_parts",
    "catalog": "FAMILY_IDS Measure all_ids get try_get",
    "discriminations": "A7 L_t base base_ids topsoe_delta",
    "distributions": "NonPositiveEntry ProbVector SumOutOfTolerance "
                     "divergence load_distribution sample_simplex validate",
    "generators": "EXP_FORMS WITNESS_FORMS convexity_witness "
                  "exp_L_representation exp_L_series_partial "
                  "exp_representation exp_series_partial family step_ratio "
                  "witness_second_derivative",
    "means": "mean mean_difference mean_generator verify_mean_identities",
    "reporting": "diff_reports write_report",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
# ``divcascade.audit`` and the like resolve too, as under the eager imports.
_SUBMODULES = {*_EXPORTS, "cli", "ratfun"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = name if name in _SUBMODULES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)  # later lookups skip this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
