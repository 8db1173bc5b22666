"""Exception hierarchy shared by all agecnn modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(EngineError):
    """Tensor extents violate an operation's shape contract."""


class ParameterError(EngineError):
    """A scalar hyperparameter is outside its valid range."""


class ConfigError(EngineError):
    """Unknown profile name or inconsistent build configuration."""


class ParseError(EngineError):
    """Malformed manifest row, label string, or config file entry."""


class LabelError(EngineError):
    """Class label index outside the valid range."""


class FormatError(EngineError):
    """Weight file or image file is structurally invalid."""


class IntegrityError(EngineError):
    """Weight file parses but its contents are inconsistent (checksum, shapes), or
    its weights score an image as non-finite."""


class StateError(EngineError):
    """Optimizer state or layer cache used out of step with its producer."""


class InputError(EngineError):
    """Metric or training inputs are empty or mismatched."""


class ResourceError(EngineError):
    """The system refused the engine something it needs to run, such as a thread."""
