"""Exception types shared across the toolkit."""


class StructureError(ValueError):
    """Parameter vectors or coefficient vectors with incompatible shapes/layouts."""


class FormatError(ValueError):
    """Malformed or inconsistent serialized data (pool files, reports)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class TrainingDiverged(RuntimeError):
    """A model's loss or parameters left the finite range during gradient descent."""


class OptError(RuntimeError):
    """Derivative-free search hit a non-finite objective value."""


class ConfigError(ValueError):
    """Invalid experiment configuration; ``path`` names the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
