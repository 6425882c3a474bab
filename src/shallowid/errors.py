"""Exception hierarchy with machine-readable payloads."""

from __future__ import annotations

from typing import Any


class ToolkitError(Exception):
    """Base class; carries a short code plus structured details."""

    code = "error"

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json_obj(self) -> dict:
        return {"error": {"type": self.code, "message": self.message,
                          "details": self.details}}


class InputError(ToolkitError):
    """Arguments violate an operation precondition (dimension mismatch etc.)."""

    code = "input"


class ParseError(ToolkitError):
    """A file or byte payload does not conform to its schema."""

    code = "parse"

    def __init__(self, message: str, location: str = "", **details: Any):
        super().__init__(message, location=location, **details)
        self.location = location


class AdmissibilityError(ToolkitError):
    """Network has a zero neuron or duplicated ridge; names the clause."""

    code = "admissibility"


class ConstructionError(ToolkitError):
    """A randomized construction exhausted its retry budget."""

    code = "construction"


class RecoveryError(ToolkitError):
    """Hyperplane recovery produced the wrong candidate count."""

    code = "recovery"


class ReconstructionError(ToolkitError):
    """Sample data is inconsistent with the model class."""

    code = "reconstruction"


class SizeError(ToolkitError):
    """Requested object exceeds a configured size cap."""

    code = "size"


class InvariantError(ToolkitError):
    """An internal consistency guard failed (e.g. stale witness)."""

    code = "invariant"


class HypothesisError(ToolkitError):
    """Inputs do not satisfy the hypotheses a decision procedure needs."""

    code = "hypothesis"
