"""Domain prevalence design space and scaled visual-encoding relevance.

The design space is a per-chart-type, per-year usage count table harvested
for a domain. Raw relevance decays counts from older years; scaled relevance
normalizes against the most used chart type so the top chart scores exactly
10 and everything else lands in [1, 10].
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import AllZeroCounts, ConfigError, EmptyDesignSpace, UnmappedDataType, config_file
from .ingest import read_json, read_table
from .record import Record

DEFAULT_DECAY = 0.9
SCALE_TOP = 10.0
SCALE_FLOOR = 1.0


class PrevalenceDesignSpace:
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, int, int], ...]):
        keys = [(chart, year) for chart, year, _ in entries]
        if len(set(keys)) != len(keys):
            raise ConfigError("duplicate (chart_type, year) entry in design space")
        if any(count < 0 for _, _, count in entries):
            raise ConfigError("negative count in design space")
        self.entries = entries  # (chart_type, year, count)

    @classmethod
    def from_csv(cls, path: str | Path) -> "PrevalenceDesignSpace":
        fail = config_file("design space file", path)
        table = read_table(path, fail)
        try:
            chart, year, count = map(table.columns.index, ("chart_type", "year", "count"))
            entries = tuple((row[chart].strip(), int(row[year]), int(row[count]))
                            for row in table.rows)
        except ValueError:  # a column missing, or a year or count not an integer
            raise fail("needs chart_type,year,count rows")
        try:
            return cls(entries)
        except ConfigError as exc:
            raise fail(str(exc))


def raw_relevance(space: PrevalenceDesignSpace, decay: float = DEFAULT_DECAY) -> dict[str, float]:
    """Decayed usage total per chart type: count * decay^(year_max - year)."""
    if not space.entries:
        raise EmptyDesignSpace("design space has no entries")
    if not (0 < decay <= 1):
        raise ConfigError(f"decay must be in (0, 1], got {decay}")
    year_max = max(year for _, year, _ in space.entries)
    totals: dict[str, float] = {}
    try:
        for chart, year, count in space.entries:
            totals[chart] = totals.get(chart, 0.0) + count * decay ** (year_max - year)
    except OverflowError:
        raise ConfigError("design space counts and year spans must fit a float")
    return dict(sorted(totals.items()))


class RelevanceTable(Record):
    __slots__ = ("raw", "scaled")

    def score(self, chart_type: str) -> float:
        return self.scaled[chart_type]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["chart_type", "raw", "scaled"])
        order = sorted(self.scaled, key=lambda c: (-self.scaled[c], c))
        for chart in order:
            writer.writerow([chart, f"{self.raw[chart]:.6g}", f"{self.scaled[chart]:.6g}"])
        return buf.getvalue()


def scaled_relevance(raw: dict[str, float]) -> RelevanceTable:
    """Scale raw relevance to [1, 10] against the maximum chart type."""
    if not raw:
        raise EmptyDesignSpace("no raw relevance values")
    top = max(raw.values())
    if top <= 0:
        raise AllZeroCounts("all design-space counts are zero")
    scaled = {
        chart: max(SCALE_FLOOR, (value / top) * SCALE_TOP) for chart, value in sorted(raw.items())
    }
    return RelevanceTable(dict(sorted(raw.items())), scaled)


def relevance_from_space(space: PrevalenceDesignSpace, decay: float = DEFAULT_DECAY) -> RelevanceTable:
    return scaled_relevance(raw_relevance(space, decay))


class TypeEncodingMap(Record):
    __slots__ = ("candidates", "path")  # data type -> chart types; the file read, or None

    def _name(self) -> str:
        return "encoding map" if self.path is None else f"encoding map {self.path}"

    def charts_for(self, dtype: str) -> tuple[str, ...]:
        if not self.candidates.get(dtype):
            raise UnmappedDataType(f"{self._name()} lists no chart type for data type {dtype!r}")
        return self.candidates[dtype]

    def validate_against(self, table: RelevanceTable) -> None:
        for dtype, charts in sorted(self.candidates.items()):
            for chart in charts:
                if chart not in table.scaled:
                    raise ConfigError(f"{self._name()} lists {chart!r} for {dtype} but the "
                                      "design space has no such chart type")

    @classmethod
    def from_json(cls, path: str | Path) -> "TypeEncodingMap":
        fail = config_file("encoding map", path)
        doc = read_json(path, fail)
        if not isinstance(doc, dict) or not all(
                isinstance(charts, list) and all(isinstance(c, str) for c in charts)
                for charts in doc.values()):
            raise fail("must be a JSON object mapping each data type to a list of chart type names")
        return cls({dtype: tuple(charts) for dtype, charts in sorted(doc.items())}, path)
