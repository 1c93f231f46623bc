"""Mean-difference divergence measures and their verification suite.

The catalog exposes seven means, their 21 pairwise differences, the
common-scale ladder W1..W9 with its 36 pyramid differences, the
residual measures V1..V14 and U1..U15, and six parametric generator
families, all backed by exact rational generators in sqrt(x).  The
audit machinery proves every ordering chain, decomposition identity,
ratio constant, and convexity certificate and writes a deterministic
JSON report.
"""

# The one place the version is written; pyproject.toml reads it from here.
__version__ = "0.1.0"

from .audit import AuditConfig, ERRATA, diff_reports, run_audit, write_report
from .analysis import (certify_convexity, estimate_sup_ratio,
                       fd_second_derivative, sample_pairs)
from .cascade import (CHAINS, THEOREM_PARTS, Chain, audit_chain,
                      beta_constant, chain_from_dict, chains,
                      combination_lines, equivalent_expression,
                      fit_combination, get_chain, pyramid_diff,
                      pyramid_equalities, residual_decompositions,
                      theorem_parts)
from .catalog import FAMILY_IDS, Measure, all_ids, get, try_get
from .discriminations import A7, L_t, base, base_ids, topsoe_delta
from .distributions import (NonPositiveEntry, ProbVector,
                            SumOutOfTolerance, divergence,
                            load_distribution, sample_simplex, validate)
from .generators import (EXP_FORMS, WITNESS_FORMS, convexity_witness,
                         exp_L_representation, exp_L_series_partial,
                         exp_representation, exp_series_partial, family,
                         step_ratio, witness_second_derivative)
from .means import (mean, mean_difference, mean_generator,
                    verify_mean_identities)

__all__ = [
    "A7", "AuditConfig", "CHAINS", "Chain", "ERRATA", "EXP_FORMS",
    "FAMILY_IDS", "L_t", "Measure", "NonPositiveEntry", "ProbVector",
    "SumOutOfTolerance",
    "THEOREM_PARTS", "WITNESS_FORMS", "all_ids", "audit_chain", "base",
    "base_ids", "topsoe_delta",
    "beta_constant", "certify_convexity", "chain_from_dict", "chains",
    "combination_lines", "convexity_witness",
    "diff_reports", "divergence", "equivalent_expression",
    "estimate_sup_ratio", "exp_L_representation", "exp_L_series_partial",
    "exp_representation", "exp_series_partial", "family",
    "fd_second_derivative", "fit_combination", "get", "get_chain", "mean",
    "mean_difference", "mean_generator", "load_distribution",
    "pyramid_diff", "pyramid_equalities", "residual_decompositions",
    "run_audit", "sample_pairs", "sample_simplex", "step_ratio",
    "theorem_parts", "try_get", "validate", "verify_mean_identities",
    "witness_second_derivative", "write_report", "__version__",
]
