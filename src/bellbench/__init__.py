"""Numerical workbench for two-setting Bell experiments on shared noisy pairs:
Bell-Mermin and Bell-Zukowski operator construction, closed-form and
quadrature cross-checks, visibility thresholds, and an independent
local-hidden-variable feasibility oracle.
"""

from .operators import expectation, hermitian_split, tensor, tensor_all
from .states import (
    CorrelationTable,
    bell_pair,
    copies,
    correlation,
    full_correlation_table,
    ghz_basis,
    noisy_pair,
    phase_observable,
)
from .mermin import (
    MerminPair,
    compose,
    local_f,
    mermin_bound_check,
    mermin_closed_form,
    mermin_expectation,
    mermin_operators,
)
from .zukowski import (
    modified_mermin_bound,
    threshold_visibility,
    z_prime_functional,
    zukowski_aligned,
    zukowski_bound_check,
    zukowski_closed,
    zukowski_from_mermin,
    zukowski_quadrature,
)
from .lhv import (
    FeasibilityVerdict,
    fine_quadruple,
    lhv_feasible,
)

__version__ = "0.1.0"
