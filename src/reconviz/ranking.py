"""Score entity-graph paths and sort them.

Each path gets three raw metrics: link strength (mean Jaccard weight of its
linkage edges), data-type diversity (distinct data types among its hubs), and
encoding relevance (sum over hubs of the best scaled relevance among each
dataset's candidate chart types). The metrics are converted to competition
ranks over the pooled path list and summed into path_score; lower is better
and the best possible score is 3.
"""

from __future__ import annotations

from collections import Counter

from .designspace import RelevanceTable, TypeEncodingMap
from .entitygraph import EntityGraph, GraphPath, connected_components, enumerate_paths, path_strength
from .errors import UnknownDataset
from .jsonout import json_text
from .record import Record


class RankedPath(Record):
    __slots__ = ("path", "strength", "diversity", "encoding_relevance", "rank_strength",
                 "rank_diversity", "rank_relevance", "path_score")

    def describe(self) -> dict:
        doc = self.path.describe()
        doc.update(
            {
                "strength": float(self.strength),
                "diversity": self.diversity,
                "encoding_relevance": self.encoding_relevance,
                "rank_strength": self.rank_strength,
                "rank_diversity": self.rank_diversity,
                "rank_relevance": self.rank_relevance,
                "path_score": self.path_score,
            }
        )
        return doc


def path_diversity(path: GraphPath, dtypes: dict[str, str]) -> int:
    """Distinct data types among the path's datasets."""
    kinds = set()
    for ds_id in path.hubs:
        if ds_id not in dtypes:
            raise UnknownDataset(ds_id)
        kinds.add(dtypes[ds_id])
    return len(kinds)


def path_vis_relevance(
    path: GraphPath,
    dtypes: dict[str, str],
    encoding_map: TypeEncodingMap,
    table: RelevanceTable,
) -> float:
    """Sum over hubs of the best scaled relevance among candidate charts."""
    total = 0.0
    for ds_id in path.hubs:
        if ds_id not in dtypes:
            raise UnknownDataset(ds_id)
        charts = encoding_map.charts_for(dtypes[ds_id])
        total += max(table.score(chart) for chart in charts)
    return total


def competition_ranks(values: list) -> list[int]:
    """Rank with ties sharing the minimum rank; highest value gets rank 1.

    A value's rank is 1 + the number of values greater than it. Only the
    distinct values are sorted, so they must be totally ordered and
    hashable; each value then finds its rank by one dict lookup.
    """
    counts = Counter(values)
    rank_of = {}
    greater = 0
    for value in sorted(counts, reverse=True):
        rank_of[value] = 1 + greater
        greater += counts[value]
    return [rank_of[value] for value in values]


def rank_paths(
    graph: EntityGraph,
    dtypes: dict[str, str],
    encoding_map: TypeEncodingMap,
    table: RelevanceTable,
) -> list[RankedPath]:
    """Enumerate paths in every component, score, rank-normalize over the
    pooled list, and sort by ascending path_score."""
    paths: list[GraphPath] = []
    for component_id, component in enumerate(connected_components(graph)):
        paths.extend(enumerate_paths(component, component_id))

    strengths = [path_strength(p) for p in paths]
    diversities = [path_diversity(p, dtypes) for p in paths]
    relevances = [path_vis_relevance(p, dtypes, encoding_map, table) for p in paths]

    rank_s = competition_ranks(strengths)
    rank_d = competition_ranks(diversities)
    rank_r = competition_ranks(relevances)

    ranked = [
        RankedPath(
            path=p,
            strength=strengths[i],
            diversity=diversities[i],
            encoding_relevance=relevances[i],
            rank_strength=rank_s[i],
            rank_diversity=rank_d[i],
            rank_relevance=rank_r[i],
            path_score=rank_s[i] + rank_d[i] + rank_r[i],
        )
        for i, p in enumerate(paths)
    ]
    ranked.sort(key=lambda r: (r.path_score, -len(r.path.hubs), r.path.hubs))
    return ranked


def ranked_paths_json(ranked: list[RankedPath]) -> str:
    return json_text([r.describe() for r in ranked])
