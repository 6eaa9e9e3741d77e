"""Exception types raised across the pipeline.

Input/config problems (unreadable files, bad manifests) derive from InputError
so the CLI can map them to exit code 2; everything else is a pipeline bug.
"""

from __future__ import annotations

import json
from pathlib import Path


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


class AllMissing(InputError):
    """Every value of a field is a missing-value marker."""


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


class ConstraintViolation(ReconVizError):
    """Field does not satisfy an encoding slot's constraints."""


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


def read_config_text(path: str | Path, what: str) -> str:
    """The text of the UTF-8 config or asset file `path`; `what` names the
    file in the ConfigError raised when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc}")


def read_config_json(path: str | Path, what: str):
    """The JSON document in the config or asset file `path`, as
    `read_config_text` reads it; invalid JSON is a ConfigError too."""
    try:
        return json.loads(read_config_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc.msg}")
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
