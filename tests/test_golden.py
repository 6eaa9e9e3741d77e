"""Byte-identity guard: sha256 digests of every CLI output (bar manifest.json,
which records the output directory) for `link`, `graph`, `specs` and
`render --view k` for every view k, on the Fig.-1 and synthetic fixtures,
whose charts have tens of marks, and on the Ebola-scale fixture, whose tree,
scatter and heatmap charts have about 1,600 marks each.

The recorded digests live in golden_digests.json. A change that is meant to
alter output re-records them by running this module as a script from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from reconviz.cli import main

from conftest import (DATA_DIR, _write_ebola_scale, _write_synthetic, ebola_manifest, fig1_datasets,
                      synthetic_manifest, write_config)

GOLDEN = Path(__file__).parent / "golden_digests.json"


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def _run(cfg: Path, out: Path, *args: str) -> dict[str, str]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*args, "--config", str(cfg), "--out", str(out)])
    assert code == 0, f"{args} exited {code}"
    return _digests(out)


def fixture_digests(work: Path, manifest: list[dict]) -> dict[str, dict[str, str]]:
    """Command -> output file name -> sha256, one fresh output directory per command."""
    cfg = write_config(work, manifest)
    out = {cmd: _run(cfg, work / cmd, cmd) for cmd in ("link", "graph", "specs")}
    views = json.loads((work / "specs" / "specs.json").read_text(encoding="utf-8"))
    for k in range(1, len(views) + 1):
        out[f"render --view {k}"] = _run(cfg, work / f"render_{k}", "render", "--view", str(k))
    return out


def all_digests(work: Path) -> dict[str, dict[str, dict[str, str]]]:
    synthetic = work / "synthetic"
    synthetic.mkdir()
    _write_synthetic(synthetic)
    fig1 = work / "fig1_run"
    fig1.mkdir()
    ebola = work / "ebola_scale"
    ebola.mkdir()
    _write_ebola_scale(ebola)
    return {
        "ebola_scale": fixture_digests(ebola, ebola_manifest(ebola)),
        "fig1": fixture_digests(fig1, fig1_datasets(DATA_DIR / "fig1")),
        "synthetic": fixture_digests(synthetic, synthetic_manifest(synthetic)),
    }


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert all_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
