"""Comparison thresholds shared by every module."""

from __future__ import annotations

from dataclasses import dataclass

# threshold below which a scalar or vector counts as zero
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical comparison thresholds.

    rank_tol      relative singular-value cutoff for numerical rank
    match_tol     threshold for deciding two hyperplanes / parameters coincide
    residual_tol  acceptable relative residual for least-squares fits
    """

    rank_tol: float = 1e-9
    match_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_tol", "match_tol", "residual_tol"):
            if not 0.0 < getattr(self, name) < float("inf"):  # also refuses NaN
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.rank_tol > self.match_tol:
            raise ValueError("rank_tol must not exceed match_tol")


DEFAULT_TOL = ToleranceConfig()
