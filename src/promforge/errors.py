"""Exception types shared across the package."""


class PromforgeError(Exception):
    """Base class for all promforge errors."""


class NonConvergenceError(PromforgeError):
    """Newton (or Newton-within-Newmark) failed to converge.

    Carries context about where iteration stalled so callers can report
    the offending load case / time step.
    """

    def __init__(self, message, residual=None, context=None):
        super().__init__(message)
        self.residual = residual
        self.context = context


class EmptySelectionError(PromforgeError):
    """Mode selection produced no modes (frequency cutoff too low)."""


class DuplicateAssignmentError(PromforgeError):
    """Basis reordering mapped two columns onto the same reference column.

    The reordered basis would be rank deficient; the remedy is to refine
    the parameter sampling.  `sample_index`, `reference_index` and `mac`
    identify the offending pair.
    """

    def __init__(self, message, sample_index=None, reference_index=None, mac=None):
        super().__init__(message)
        self.sample_index = sample_index
        self.reference_index = reference_index
        self.mac = mac


class DegenerateSnapshotsError(PromforgeError):
    """Snapshot compression received no usable (nonzero) snapshots."""


class StructureViolationError(PromforgeError):
    """A reduced model failed the admissibility rule (`RomOperators.validate`)."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


class IllConditionedError(PromforgeError):
    """A linear system was singular or unusably ill conditioned."""


class CorruptFileError(PromforgeError):
    """Container file failed magic/length/checksum validation."""


class FormatVersionError(PromforgeError):
    """Container file has an unsupported format version."""
