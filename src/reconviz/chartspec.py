"""Chart templates and greedy slot assignment.

Templates are data (JSON), one per chart type, declaring encoding slots with
channel, constraint, and required flags. For each dataset on a path, every
template matching its data type is filled greedily from the prioritized field
list; only charts whose required slots are all bound survive.

Slot acceptance: color/shape channels always demand non-numeric fields with
fewer than `color_card_limit` categories and size always demands numeric.
Positional channels accept numeric or high-cardinality non-numeric fields by
default ("any"); a template may narrow that with an explicit constraint (a
bar chart's category axis wants low-cardinality fields, for example).
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

from .designspace import RelevanceTable
from .errors import ConfigError, config_file
from .ingest import Dataset, Field, read_json
from .record import Record

CHANNELS = ("x", "y", "color", "shape", "size")
CONSTRAINTS = ("numeric", "non-numeric", "non-numeric_low_card", "non-numeric_high_card", "any")

DEFAULT_COLOR_CARD_LIMIT = 12
DEFAULT_HIGHCARD_THRESHOLD = 12


class EncodingSlot:
    __slots__ = ("channel", "constraint", "required")

    def __init__(self, channel: str, constraint: str = "any", required: bool = False):
        if channel not in CHANNELS:
            raise ConfigError(f"unknown channel {channel!r}")
        if constraint not in CONSTRAINTS:
            raise ConfigError(f"unknown constraint {constraint!r}")
        self.channel = channel
        self.constraint = constraint
        self.required = required


class ChartTemplate:
    __slots__ = ("chart_type", "dtype", "slots")

    def __init__(self, chart_type: str, dtype: str, slots: tuple[EncodingSlot, ...]):
        if not any(slot.required for slot in slots):
            raise ConfigError(f"template {chart_type!r} has no required slot")
        channels = [slot.channel for slot in slots]
        for channel in channels:
            if channels.count(channel) > 1:
                raise ConfigError(f"template {chart_type!r} names channel {channel!r} in two slots")
        self.chart_type = chart_type
        self.dtype = dtype
        self.slots = slots


def _is_template(item) -> bool:
    """Whether a template file entry has the shape `load_templates` reads."""
    return (isinstance(item, dict)
            and all(isinstance(item.get(key), str) for key in ("chart_type", "dtype"))
            and isinstance(item.get("slots"), list)
            and all(isinstance(s, dict) and isinstance(s.get("required", False), bool)
                    for s in item["slots"]))


def load_templates(path: str | Path,
                   drawable: Mapping[str, tuple[str | None, tuple[str, ...]]]) -> list[ChartTemplate]:
    """The templates in the JSON file at `path`. `drawable` maps each chart
    type a renderer exists for to the data type whose payload that renderer
    reads (None: any) and the channels it draws; a template names such a
    type at most once, is for that data type and requires those channels."""
    fail = config_file("template file", path)
    doc = read_json(path, fail)
    if not isinstance(doc, list) or not doc or not all(_is_template(item) for item in doc):
        raise fail("must be a non-empty JSON array of objects, each with string chart_type and "
                   "dtype and a list of slot objects, whose required is true or false")
    templates = []
    seen: set[str] = set()
    for item in doc:
        if item["chart_type"] in seen:
            raise fail(f"lists chart type {item['chart_type']!r} twice")
        if item["chart_type"] not in drawable:
            raise fail(f"no renderer draws chart type {item['chart_type']!r}")
        dtype, channels = drawable[item["chart_type"]]
        if dtype not in (None, item["dtype"]):
            raise fail(f"{item['chart_type']!r} draws {dtype} data, not {item['dtype']!r}")
        seen.add(item["chart_type"])
        try:
            slots = tuple(
                EncodingSlot(s.get("channel"), s.get("constraint", "any"), s.get("required", False))
                for s in item["slots"]
            )
            templates.append(ChartTemplate(item["chart_type"], item["dtype"], slots))
        except ConfigError as exc:
            raise fail(str(exc))
        optional = set(channels) - {s.channel for s in slots if s.required}
        if optional:
            raise fail(f"{item['chart_type']!r} is drawn from {', '.join(sorted(optional))}, "
                       "which its template must require")
    return templates


def validate_templates(templates: list[ChartTemplate], table: RelevanceTable) -> None:
    for template in templates:
        if template.chart_type not in table.scaled:
            raise ConfigError(
                f"template {template.chart_type!r} is missing from the relevance table"
            )


def is_high_cardinality(field: Field, threshold: int) -> bool:
    """High cardinality: at or above the threshold, or a unique key."""
    if field.numeric or field.cardinality is None:
        return False
    return field.cardinality >= threshold or field.cardinality == field.row_count


def slot_accepts(
    slot: EncodingSlot,
    field: Field,
    color_card_limit: int = DEFAULT_COLOR_CARD_LIMIT,
    highcard_threshold: int = DEFAULT_HIGHCARD_THRESHOLD,
) -> bool:
    card = field.cardinality if field.cardinality is not None else 0
    if slot.channel in ("color", "shape"):
        if field.numeric or card >= color_card_limit:
            return False
    elif slot.channel == "size":
        if not field.numeric:
            return False
    elif slot.channel in ("x", "y") and slot.constraint == "any":
        if not (field.numeric or is_high_cardinality(field, highcard_threshold)):
            return False

    constraint = slot.constraint
    if constraint == "numeric":
        return field.numeric
    if constraint == "non-numeric":
        return not field.numeric
    if constraint == "non-numeric_low_card":
        return not field.numeric and card < color_card_limit
    if constraint == "non-numeric_high_card":
        return is_high_cardinality(field, highcard_threshold)
    return True  # "any"


class Binding(Record):
    __slots__ = ("field", "source")

    def key(self) -> tuple[str, str]:
        return (self.source, self.field)


class ChartSpec(Record):
    # swappable: x and y are both bound and each field would pass the template's slot
    # on the other channel; decided when the spec is generated, not serialized
    __slots__ = ("id", "chart_type", "dataset_id", "dtype", "relevance", "bindings",
                 "required_channels", "annotations", "swappable")

    def positional_bindings(self) -> dict[str, Binding]:
        return {ch: b for ch, b in self.bindings.items() if ch in ("x", "y")}

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "chart_type": self.chart_type,
            "dataset": self.dataset_id,
            "dtype": self.dtype,
            "relevance": self.relevance,
            "bindings": {
                ch: {"field": b.field, "source": b.source}
                for ch, b in sorted(self.bindings.items())
            },
            "required_channels": list(self.required_channels),
            "complete": True,  # only specs with every required slot bound exist
            "annotations": self.annotations,
        }


def spec_order(spec: ChartSpec) -> tuple:
    """Sort key of singleton specs: scaled relevance descending, then chart
    type, then dataset id."""
    return (-spec.relevance, spec.chart_type, spec.dataset_id)


def prioritize_fields(
    path_fields: list[tuple[Field, int]],
    user_fields: list[str] | None = None,
) -> list[Field]:
    """Order fields for slot assignment: user-named fields first, then by
    descending graph degree, ties by cardinality descending then name."""
    user_fields = user_fields or []

    def user_rank(field: Field) -> int:
        for i, name in enumerate(user_fields):
            if name == field.name or name == field.qualified_name:
                return i
        return len(user_fields)

    def sort_key(item: tuple[Field, int]):
        field, degree = item
        card = field.cardinality if field.cardinality is not None else 0
        rank = user_rank(field)
        return (0 if rank < len(user_fields) else 1, rank, -degree, -card, field.name, field.source_id)

    return [field for field, _ in sorted(path_fields, key=sort_key)]


def _assign_required(
    slots: list[EncodingSlot],
    candidates: list[Field],
    accepts,
) -> dict[str, Field] | None:
    """First-fit assignment of required slots with backtracking.

    Backtracking matters: a high-priority field must not starve a later
    required slot it was the only candidate for (user priority may only
    permute assignments, not kill the chart).
    """
    if not slots:
        return {}
    slot, rest = slots[0], slots[1:]
    for f in candidates:
        if not accepts(slot, f):
            continue
        remaining = [c for c in candidates if c is not f]
        tail = _assign_required(rest, remaining, accepts)
        if tail is not None:
            return {slot.channel: f, **tail}
    return None


def _fill_template(
    template: ChartTemplate,
    dataset: Dataset,
    candidates: list[Field],
    relevance: float,
    color_card_limit: int,
    highcard_threshold: int,
) -> ChartSpec | None:
    def accepts(slot: EncodingSlot, field: Field) -> bool:
        return slot_accepts(slot, field, color_card_limit, highcard_threshold)

    required_slots = [s for s in template.slots if s.required]
    assigned = _assign_required(required_slots, candidates, accepts)
    if assigned is None:
        return None

    bound_fields: dict[str, Field] = dict(assigned)
    used = {(f.source_id, f.name) for f in assigned.values()}
    for slot in (s for s in template.slots if not s.required):
        choice = next(
            (f for f in candidates if (f.source_id, f.name) not in used and accepts(slot, f)),
            None,
        )
        if choice is None:
            # Last resort: one field may serve both a positional slot and the
            # color slot (a map colors by the same field that keys its regions).
            if slot.channel == "color":
                for ch in ("x", "y"):
                    reused = bound_fields.get(ch)
                    if reused is not None and accepts(slot, reused):
                        choice = reused
                        break
            elif slot.channel in ("x", "y"):
                reused = bound_fields.get("color")
                if reused is not None and accepts(slot, reused):
                    choice = reused
        if choice is None:
            continue
        bound_fields[slot.channel] = choice
        used.add((choice.source_id, choice.name))

    required = tuple(s.channel for s in template.slots if s.required)
    bindings = {ch: Binding(f.name, f.source_id) for ch, f in bound_fields.items()}
    slots = {s.channel: s for s in template.slots}
    swappable = "x" in bound_fields and "y" in bound_fields and all(
        accepts(slots[other], bound_fields[ch]) for ch, other in (("x", "y"), ("y", "x"))
    )
    return ChartSpec(
        id=f"{dataset.id}:{template.chart_type}",
        chart_type=template.chart_type,
        dataset_id=dataset.id,
        dtype=dataset.dtype,
        relevance=relevance,
        bindings=bindings,
        required_channels=required,
        annotations={},
        swappable=swappable,
    )


def generate_single_chart_specs(
    path_datasets: list[Dataset],
    prioritized: list[Field],
    templates: list[ChartTemplate],
    table: RelevanceTable,
    color_card_limit: int = DEFAULT_COLOR_CARD_LIMIT,
    highcard_threshold: int = DEFAULT_HIGHCARD_THRESHOLD,
) -> list[ChartSpec]:
    """All complete singleton chart specs for the given datasets, in
    `spec_order`."""
    specs: list[ChartSpec] = []
    for dataset in path_datasets:
        candidates = [f for f in prioritized if f.source_id == dataset.id]
        for template in templates:
            if template.dtype != dataset.dtype:
                continue
            spec = _fill_template(
                template,
                dataset,
                candidates,
                table.score(template.chart_type),
                color_card_limit,
                highcard_threshold,
            )
            if spec is not None:
                specs.append(spec)
    specs.sort(key=spec_order)
    return specs
