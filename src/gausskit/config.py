"""Shared numeric defaults."""

DEFAULT_TOL = 1e-10
DEFAULT_CUTOFF = 20
DEFAULT_SEED = 0
