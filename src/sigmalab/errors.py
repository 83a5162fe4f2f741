"""Exception types shared across the package.

The CLI maps these onto its exit-status taxonomy; library code raises them
directly.
"""


class SigmalabError(Exception):
    """Base class for all package errors."""


class ConfigError(SigmalabError):
    """Invalid user input: unknown descriptor, bad parameter, broken config."""


class MeshError(SigmalabError):
    """Mesh construction or validation failure."""


class DomainError(MeshError, ConfigError):
    """Domain or mesh-size arguments out of range: bad input, not a failed mesh build."""


class ResourceLimitError(SigmalabError):
    """A configured resource cap (vertex count, sample budget) was exceeded."""


class EllipticityError(SigmalabError):
    """A coefficient field failed an ellipticity requirement."""


class NotEllipticError(EllipticityError, ConfigError):
    """A coefficient field is not elliptic on its samples: bad input, not a failed solve."""


class SolverError(SigmalabError):
    """Linear solve failed or produced an unacceptable residual."""


class DegenerateInputError(SigmalabError):
    """Input is degenerate for the requested operation (constant trace, zero field)."""


class NotInjectiveError(SigmalabError):
    """A mapping violates the injectivity hypothesis required by the operation.

    result is the check's InjectivityResult, when the raiser ran one.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
