"""reconviz benchmark: latency of the real CLI commands on seeded collections.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports reconviz from `src/` of
the checkout it sits in, generates the workload's inputs from `--seed`, and
then runs a closed loop with one client and no think time: it cycles
`link` -> `specs` -> `render --view k` (k = 1..min(views, 10)) for `--seconds`
seconds. Every operation is one `cli.main([...])` call in a child forked from
this process, so a cache filled by one operation cannot speed up the next,
just as a user pays a fresh process per invocation. Each operation writes to
a fresh output directory; see NOTES.md for why outputs are never overwritten.

Every output is checked (see checks.py). The last line of standard output is
one JSON object: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run (see tracing.py). Progress and a
readable summary go to standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from checks import Checker
from tracing import LAYERS, ROOT_LAYER, Span, Tracer, layer_self_times
from workloads import SHAPES, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
VIEWS_OPENED = 10  # the top views a user actually opens
OP_TIMEOUT_S = 60.0
MAX_REPORTED_PROBLEMS = 5

COMMANDS = ("link", "specs", "render")
START_TAG = re.compile(rb"<[A-Za-z]")


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0..100), interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def import_reconviz():
    """Import reconviz from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import reconviz.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import reconviz from {SRC}: {exc}")
    if not Path(reconviz.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: reconviz was imported from {reconviz.cli.__file__}, "
                         f"not from {SRC}")
    return reconviz.cli


class SetupProbe:
    """Times a fresh interpreter up to `reconviz.cli` imported.

    The samples are spread evenly over the measured window, so they see the
    same machine conditions as the operations do.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                               self.env.get("PYTHONPATH")]))
        self.cmd = [sys.executable, "-c", "import reconviz.cli"]
        self.samples: list[float] = []
        subprocess.run(self.cmd, env=self.env, check=True)  # writes the bytecode cache once

    def due(self, elapsed: float, seconds: float) -> bool:
        return len(self.samples) < SETUP_REPEATS and \
            elapsed >= len(self.samples) * seconds / SETUP_REPEATS

    def measure(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        self.samples.append(time.perf_counter() - start)


def command_cycle(views: int):
    """link, specs, render k, link, specs, render k+1, ... forever."""
    k = 0
    while True:
        yield "link", None
        yield "specs", None
        yield "render", k % min(views, VIEWS_OPENED) + 1
        k += 1


def _child(cli, argv: list[str], tracer, op_id: int, write_fd: int) -> None:
    """Body of a forked child: run one command and report back; never returns."""
    status = 1
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # the CLI's "wrote ..." lines
        sys.stderr = io.StringIO()
        if tracer is None:
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
            report = {"rc": rc, "seconds": seconds}
        else:
            tracer.reset(op_id)
            rc = tracer.call(ROOT_LAYER, cli.main, argv)
            root = tracer.spans[0]
            report = {"rc": rc, "seconds": root.end - root.start,
                      "spans": tracer.span_dicts(), "counts": tracer.counts()}
        report["stderr"] = sys.stderr.getvalue()[-2000:]
        status = 0
    except BaseException:
        report = {"error": traceback.format_exc()[-4000:]}
    try:
        data = json.dumps(report).encode("utf-8")
        while data:
            data = data[os.write(write_fd, data):]
    finally:
        os._exit(status)  # never fall back into the parent's code


def run_op(cli, argv: list[str], tracer, op_id: int) -> dict:
    """Fork a child for one CLI command; return its report plus peak RSS.

    A report with a "problem" key is a failed operation: a non-zero exit
    code, an exception, a crash or a timeout.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    if tracer is not None:
        tracer.install()  # the child keeps the wrappers, this process drops them
    try:
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(cli, argv, tracer, op_id, write_fd)
    finally:
        if tracer is not None:
            tracer.uninstall()
    os.close(write_fd)
    chunks, timed_out = [], False
    deadline = time.monotonic() + OP_TIMEOUT_S
    with os.fdopen(read_fd, "rb", buffering=0) as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = pipe.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    try:
        report = json.loads(b"".join(chunks))
    except ValueError:
        report = {}
    report["rss_kb"] = usage.ru_maxrss
    if timed_out:
        report["problem"] = f"timed out after {OP_TIMEOUT_S:.0f} s"
    elif not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0 or "error" in report:
        report["problem"] = f"child failed (wait status {status}): {report.get('error', '')}"
    elif report.get("rc") != 0:
        report["problem"] = f"exit code {report.get('rc')}: {report.get('stderr', '').strip()}"
    return report


def output_counts(command: str, out_dir: Path) -> dict[str, int]:
    """Counts derived from what one operation wrote."""
    files = list(out_dir.iterdir())
    counts = {"cli.bytes_written": sum(p.stat().st_size for p in files)}
    if command == "render":
        svgs = [p.read_bytes() for p in files if p.suffix == ".svg"]
        counts["svg.bytes"] = sum(len(s) for s in svgs)
        counts["svg.elements"] = sum(len(START_TAG.findall(s)) for s in svgs)
    return counts


class TraceStats:
    """Per-layer self times, calls and counts summed over traced operations."""

    def __init__(self):
        self.ops = 0
        self.ops_by_command: Counter = Counter()
        self.self_s: Counter = Counter()
        self.self_s_by_command: dict[str, Counter] = defaultdict(Counter)
        self.calls: Counter = Counter()
        self.errors = 0
        self.count_sum: Counter = Counter()
        self.count_ops: Counter = Counter()
        self.overhead: list[float] = []
        self.spans: list[str] = []  # one JSON line per operation; strings escape the GC

    def add(self, command: str, report: dict, untraced_s: float) -> list[str]:
        spans = [Span(**s) for s in report["spans"]]
        layers = layer_self_times(spans)
        root = spans[0].end - spans[0].start
        if abs(sum(layers.values()) - root) > 1e-6:
            return [f"trace: layer self times sum to {sum(layers.values())!r}, root span {root!r}"]
        self.ops += 1
        self.ops_by_command[command] += 1
        self.self_s.update(layers)
        self.self_s_by_command[command].update(layers)
        self.calls.update(s.name for s in spans[1:])
        self.errors += sum(s.error for s in spans)
        self.overhead.append(root / untraced_s)
        self.spans.append(json.dumps({"command": command, "spans": report["spans"]}))

        counts = dict(report["counts"])
        if command == "render" and "pipeline.views" in counts:
            counts["pipeline.views_per_render"] = counts.pop("pipeline.views")
        self.count_sum.update(counts)
        self.count_ops.update(counts.keys())
        return []

    def metrics(self) -> dict[str, tuple[float, str]]:
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = (self.self_s[layer] / ops, "s")
            if layer != "cli.self":
                out[f"{layer}_calls"] = (self.calls[layer] / ops, "count")
        units = {"ingest.input_bytes": "B", "svg.bytes": "B", "cli.bytes_written": "B"}
        for key in ("ingest.fields", "ingest.input_bytes", "entitygraph.candidate_pairs",
                    "entitygraph.links", "entitygraph.hub_pairs", "entitygraph.paths",
                    "ranking.paths_ranked", "pipeline.views", "pipeline.views_per_render",
                    "chartspec.charts", "charts.charts_rendered", "svg.elements", "svg.bytes",
                    "cli.bytes_written"):
            mean = self.count_sum[key] / self.count_ops[key] if self.count_ops[key] else 0.0
            out[key] = (mean, units.get(key, "count"))
        s = self.count_sum
        out["entitygraph.link_yield"] = (
            s["entitygraph.links"] / s["entitygraph.candidate_pairs"]
            if s["entitygraph.candidate_pairs"] else 0.0, "ratio")
        hub_slots = s["entitygraph.hubs"] + s["entitygraph.hub_pairs"]
        out["entitygraph.path_yield"] = (
            s["entitygraph.paths"] / hub_slots if hub_slots else 0.0, "ratio")
        out["trace.overhead"] = (statistics.median(self.overhead) if self.overhead else 0.0,
                                 "ratio")
        out["trace.errors"] = (float(self.errors), "count")
        return out

    def summary(self) -> str:
        lines = ["mean self time per traced operation, by command (ms):"]
        for command in COMMANDS:
            n = self.ops_by_command[command]
            if not n:
                continue
            top = self.self_s_by_command[command].most_common(6)
            lines.append(f"  {command:7s} n={n:4d}  " + "  ".join(
                f"{layer}={seconds / n * 1e3:.2f}" for layer, seconds in top))
        return "\n".join(lines)


def run(cli, workload: str, seed: int, seconds: float, trace: bool, work: Path,
        record_digests: bool) -> tuple[dict, str]:
    setup = SetupProbe()
    collection = generate(workload, seed, work / "inputs")
    schema = json.loads((SRC / "reconviz" / "assets" / "view_spec.schema.json").read_text())
    digests_path = HERE / "digests.json"
    recorded = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    golden = recorded.get(workload) if seed == DEFAULT_SEED and not record_digests else None
    if seed == DEFAULT_SEED and not record_digests and golden is None:
        raise SystemExit(f"perfbench: no recorded digests for {workload} in {digests_path}")
    checker = Checker(collection, SHAPES[workload], schema, golden)
    tracer = Tracer() if trace else None
    stats = TraceStats()

    samples: dict[str, list[float]] = defaultdict(list)
    attempted = failed = peak_rss_kb = shown = 0

    def fail(argv: list[str], problems: list[str]) -> None:
        nonlocal failed, shown
        failed += 1
        for problem in problems[:max(0, MAX_REPORTED_PROBLEMS - shown)]:
            print(f"perfbench: {' '.join(argv[:1] + argv[5:])}: {problem}", file=sys.stderr)
        shown += len(problems)

    ops = command_cycle(SHAPES[workload]["views"])
    modes = (False,)
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if not trace and setup.due(elapsed, seconds):
            setup.measure()
            continue
        command, view = next(ops)
        if trace:  # every operation runs untraced and traced; alternate which goes first
            modes = (True, False) if modes == (False, True) else (False, True)
        done = {}
        for traced in modes:
            attempted += 1
            out_dir = work / "ops" / f"{attempted:06d}"
            argv = [command, "--config", str(collection.config), "--out", str(out_dir)]
            if view is not None:
                argv += ["--view", str(view)]
            report = run_op(cli, argv, tracer if traced else None, attempted)
            peak_rss_kb = max(peak_rss_kb, report["rss_kb"])
            problems = [report["problem"]] if "problem" in report else checker.check(
                command, view, out_dir)
            if not problems and traced:
                report["counts"].update(output_counts(command, out_dir))
            shutil.rmtree(out_dir, ignore_errors=True)
            if problems:
                fail(argv, problems)
                break  # the other twin is not run
            done[traced] = report
        if not trace and done:
            samples[command].append(done[False]["seconds"])
        elif len(done) == 2:
            problems = stats.add(command, done[True], done[False]["seconds"])
            if problems:
                fail(argv, problems)

    if record_digests:
        wanted = 4 + 2 * min(SHAPES[workload]["views"], VIEWS_OPENED)
        if seed != DEFAULT_SEED or failed or len(checker.digests) != wanted:
            raise SystemExit(f"perfbench: not recording digests: seed {seed}, {failed} failed, "
                             f"{len(checker.digests)} of {wanted} outputs seen")
        recorded[workload] = dict(sorted(checker.digests.items()))
        digests_path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    if trace:
        metrics = stats.metrics()
        TRACE_OUT.mkdir(exist_ok=True)
        (TRACE_OUT / f"trace_{workload}_seed{seed}.jsonl").write_text(json.dumps(
            {"workload": workload, "seed": seed}) + "\n" + "\n".join(stats.spans) + "\n")
        summary = stats.summary()
    else:
        metrics = {"setup_s": (statistics.median(setup.samples), "s")}
        for command in COMMANDS:
            metrics[f"{command}_s.p50"] = (percentile(samples[command] or [0.0], 50), "s")
        metrics["peak_rss_mb"] = (peak_rss_kb / 1024, "MB")
        metrics["ok_rate"] = ((attempted - failed) / attempted if attempted else 0.0, "ratio")
        # p90 is shown, not reported: on a shared host it follows other tenants' load (NOTES.md)
        summary = "samples: " + ", ".join(f"{c}={len(samples[c])}" for c in COMMANDS) \
            + f", setup={len(setup.samples)}\np90 (s): " + ", ".join(
                f"{c}={percentile(samples[c] or [0.0], 90):.6g}" for c in COMMANDS)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"at --seed {DEFAULT_SEED}, store output digests in digests.json "
                             "instead of checking against them")
    args = parser.parse_args(argv)

    cli = import_reconviz()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, summary = run(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                              work, args.record_digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(summary, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
