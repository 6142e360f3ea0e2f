"""Shared numeric defaults and the run configuration."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TOL = 1e-10
DEFAULT_CUTOFF = 20
DEFAULT_SEED = 0


@dataclass
class Config:
    """Knobs shared by the CLI and the scripts.

    cutoff: total particle-number truncation of Fock-basis objects.
    tol: relative positivity/validity tolerance (scale-free, see
        core.is_positive_definite).
    seed: 64-bit seed for sampling.
    fmt: "json" or "csv" for matrix/vector outputs.
    """

    cutoff: int = DEFAULT_CUTOFF
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    fmt: str = "json"

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.fmt!r}")

