"""Exception and warning types shared across the library."""


class ParameterError(ValueError):
    """A spec or argument value is outside its admissible range."""


class ResolutionError(ParameterError):
    """Mesh resolution too low to produce a valid triangulation."""


class MeshError(ValueError):
    """A mesh violates a structural invariant."""


class OrientationError(MeshError):
    """Triangle winding is inconsistent across an interior edge."""


class InputFormatError(ValueError):
    """An input file is not in a format this tool produces."""


class ShallowRegimeWarning(UserWarning):
    """Inputs are outside the small-angle regime the closed forms assume."""
