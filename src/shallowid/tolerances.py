"""Comparison thresholds shared by every module."""

from __future__ import annotations

from dataclasses import dataclass

# threshold below which a scalar or vector counts as zero
ZERO_TOL = 1e-12

# relative singular-value cutoff of every rank and least-squares solve, and
# the floor of match_tol, which alone judges noise in the data
RANK_TOL = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical comparison thresholds.

    match_tol     threshold for deciding two hyperplanes / parameters coincide
    residual_tol  acceptable relative residual for least-squares fits
    """

    match_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("match_tol", "residual_tol"):
            if not 0.0 < getattr(self, name) < float("inf"):  # also refuses NaN
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.match_tol < RANK_TOL:
            raise ValueError(f"match_tol must be at least the rank cutoff {RANK_TOL:g}")


DEFAULT_TOL = ToleranceConfig()
