"""Exception hierarchy shared across the package.

The CLI maps ConfigError to exit code 1 and every other DotnmrError to
exit code 2 (numerical failure).
"""


class DotnmrError(Exception):
    """Base class for all package errors."""


class ConfigError(DotnmrError):
    """Invalid configuration value; the message names the offending field."""


class NonHermitianError(DotnmrError):
    """Matrix handed to the eigensolver is not Hermitian within tolerance."""


class ParityError(DotnmrError):
    """Violation of the m-parity / total-spin rule for two electrons."""


class DegenerateSelectionError(DotnmrError):
    """Eigenstate overlap criterion cannot pick a unique resonance partner."""


class DegenerateModelError(DotnmrError):
    """Two-qubit model has no state-dependent shift; conditional gate impossible."""
