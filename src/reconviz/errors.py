"""Exception types raised across the pipeline.

Input/config problems (unreadable files, bad manifests) derive from InputError
so the CLI can map them to exit code 2; everything else is a pipeline bug.
"""

from __future__ import annotations

from collections.abc import Callable


class ReconVizError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ReconVizError):
    """A problem with user-supplied files or configuration."""


class ParseError(InputError):
    def __init__(self, dtype: str, path: str, detail: str, line: int | None = None):
        self.dtype = dtype
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"cannot parse {dtype} data at {where}: {detail}")


class KeyMismatch(InputError):
    """Associated table shares no key values with the primary payload."""


class DuplicateDatasetId(InputError):
    pass


class EmptySet(ReconVizError):
    """Jaccard similarity is undefined for empty sets."""


class EmptyDesignSpace(InputError):
    pass


class AllZeroCounts(InputError):
    """Design space has no non-zero usage count to scale against."""


class UnknownDataset(ReconVizError):
    pass


class UnmappedDataType(InputError):
    """A data type has no candidate chart types in the encoding map."""


class MultipleImmutable(ReconVizError):
    """A spatial group contains more than one positionally immutable chart."""


class UnsupportedChartType(ReconVizError):
    pass


class DataMismatch(ReconVizError):
    """A chart spec references a field or dataset that is not present."""


class MissingFragment(ReconVizError):
    """A layout cell has no rendered fragment."""


class ConfigError(InputError):
    pass


def config_file(what: str, path) -> Callable[..., ConfigError]:
    """The `fail(detail, line=None)` of the config or asset file `path`: a
    ConfigError that names the file as `what` and `path`, and the line if known."""
    def fail(detail: str, line: int | None = None) -> ConfigError:
        where = path if line is None else f"{path}:{line}"
        return ConfigError(f"{what} {where}: {detail}")
    return fail
