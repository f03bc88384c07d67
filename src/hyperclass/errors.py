"""Exception types shared across the package.

The CLI maps any HyperclassError to exit code 1; argparse handles usage
errors (exit code 2) on its own.
"""


class HyperclassError(Exception):
    """Base class for all named errors raised by this package."""


class TaxonomyError(HyperclassError):
    """Malformed label hierarchy: cycles, double parents, bad class map."""


class DatasetError(HyperclassError):
    """Malformed or inconsistent dataset file."""


class CheckpointError(HyperclassError):
    """Unreadable, corrupt, or incompatible checkpoint."""


class StageError(CheckpointError):
    """Checkpoint holds the wrong pipeline stage for the requested command."""


class ConfigError(HyperclassError):
    """Inconsistent run configuration (e.g. missing label embedding for a class)."""


class NumericalError(HyperclassError, ValueError):
    """Non-finite values in a point, a loss or a training step (a ValueError too)."""
