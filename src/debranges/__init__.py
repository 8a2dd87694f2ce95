"""Exact-arithmetic toolkit for the Koebe Loewner chain, the de Branges and
Weinstein function systems, orthogonal-polynomial positivity, and Gosper
telescoping certificates.

Everything is computed over arbitrary-precision rationals, so each of the
classical identities connecting these objects can be checked to literal
equality; the ``debranges`` command line exposes tables, evaluations and the
verification sweeps.
"""

from .exact import EvalGrid, Poly, RationalFunction, binomial, format_rational, pochhammer
from .series import ZSeries, koebe_chain, time_derivative
from .lowner import CoeffTable, chain_poly, coeff_closed, coeff_table, ode_residual, system_residual
from .dbw import (
    debranges_generating_series,
    debranges_poly,
    debranges_slope_at_zero,
    debranges_system_residual,
    explicit_generating_witness,
    jacobi_decomposition_witness,
    milin_functional,
    positivity_scan,
    weinstein_poly,
    weinstein_series,
)
from .orthopoly import (
    askey_gasper_scan,
    askey_gasper_sum,
    chain_gegenbauer_witness,
    gegenbauer_expansion_witness,
    gegenbauer_minus_half,
    gegenbauer_partial_sum_poly,
    gegenbauer_partial_sum_scan,
    jacobi_partial_sum_poly,
    jacobi_poly,
    to_y,
)
from .hypsum import (
    GosperCertificate,
    HypTerm,
    TermSemanticError,
    TermSyntaxError,
    certificate_witness,
    gosper,
    parse_term,
    pfq_terminating,
    telescoped_sum,
    term_ratio,
    term_value,
    verify_certificate,
    weighted_binomial_sum,
)

__version__ = "0.1.0"

__all__ = [
    "EvalGrid",
    "Poly",
    "RationalFunction",
    "ZSeries",
    "CoeffTable",
    "GosperCertificate",
    "HypTerm",
    "TermSemanticError",
    "TermSyntaxError",
    "askey_gasper_scan",
    "askey_gasper_sum",
    "binomial",
    "certificate_witness",
    "chain_gegenbauer_witness",
    "chain_poly",
    "coeff_closed",
    "coeff_table",
    "debranges_generating_series",
    "debranges_poly",
    "debranges_slope_at_zero",
    "debranges_system_residual",
    "explicit_generating_witness",
    "format_rational",
    "gegenbauer_expansion_witness",
    "gegenbauer_minus_half",
    "gegenbauer_partial_sum_poly",
    "gegenbauer_partial_sum_scan",
    "gosper",
    "jacobi_decomposition_witness",
    "jacobi_partial_sum_poly",
    "jacobi_poly",
    "koebe_chain",
    "milin_functional",
    "ode_residual",
    "parse_term",
    "pfq_terminating",
    "pochhammer",
    "positivity_scan",
    "system_residual",
    "telescoped_sum",
    "term_ratio",
    "term_value",
    "time_derivative",
    "to_y",
    "verify_certificate",
    "weighted_binomial_sum",
    "weinstein_poly",
    "weinstein_series",
]
