"""Structured outcome of a single inequality verification, and the one
error a failed hypothesis raises."""

from __future__ import annotations

from dataclasses import dataclass, field


class HypothesisError(ValueError):
    """A named hypothesis of an inequality failed on the supplied data.

    Every layer raises this one class (the harness checks, the zero-set
    check of the localization, the covering check), and the CLI maps it to
    exit code 3."""


@dataclass
class VerificationReport:
    """Left/right-hand sides of one inequality instance plus bookkeeping.

    ``fitted_c`` is lhs/rhs when rhs > 0, otherwise None and the report is
    flagged degenerate.  ``params`` records every tuning parameter that
    entered the run; ``refinement`` collects (level, fitted_c) pairs when a
    refinement series was performed.
    """

    inequality: str
    lhs: float
    rhs: float
    params: dict = field(default_factory=dict)
    passed: bool = True
    refinement: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def degenerate(self) -> bool:
        return not self.rhs > 0

    @property
    def fitted_c(self) -> float | None:
        if self.degenerate:
            return None
        return self.lhs / self.rhs

    def to_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "fitted_c": self.fitted_c,
            "degenerate": self.degenerate,
            "params": _plain(self.params),
            "passed": bool(self.passed),
            "refinement": _plain(self.refinement),
            "details": _plain(self.details),
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj
