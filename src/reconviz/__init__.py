"""reconviz: linkage-aware visualization recommendation for heterogeneous
dataset collections.

Feed it a manifest of tables, trees, sequence sets, polygon collections,
networks, and annotated images; it discovers shared fields, ranks integration
paths, and emits coordinated multi-chart views as deterministic SVG plus
machine-readable specs.
"""

__version__ = "0.1.0"
