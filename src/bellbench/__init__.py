"""Numerical workbench for two-setting Bell experiments on shared noisy pairs:
Bell-Mermin and Bell-Zukowski operator construction, closed-form and
quadrature cross-checks, visibility thresholds, and an independent
local-hidden-variable feasibility oracle.
"""

__version__ = "0.10.0"
