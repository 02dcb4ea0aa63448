"""The repository's benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload checkins_sgb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports the per-layer metrics: the
first half of ``--seconds`` runs untraced, the second half with the layer
wrappers of ``tracing.py`` installed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong answer prints ``"correct": false`` and exits 1.  ``--smoke`` runs every
workload at a tiny size in both modes and checks that every metric is
emitted and that the wrappers are gone afterwards.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# The engine must run on its defaults.  SGB_WORKERS (exported by CI's
# parallel job), SGB_CACHE, SGB_OPTIMIZER, SGB_PARALLEL_MIN_POINTS and
# SGB_SERVER_* would each force a plan or a setting, so every SGB_* variable
# goes.  SGB_COST_PROFILE=off keeps the planner on its built-in profile
# instead of a calibration file under the user's home directory.
for _key in [k for k in os.environ if k.startswith("SGB_")]:
    del os.environ[_key]
os.environ["SGB_COST_PROFILE"] = "off"

import tracing  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Phase, WrongAnswer  # noqa: E402

SETUP_RUNS = 3  # setup_s is the median of this many cold starts
GROUPING_SPANS = ("core.group", "engine.sharded")
LAYER_TIMES = (
    "sql.parse", "plan.plan", "plan.rewrite", "exec.scan", "exec.join", "exec.agg",
    "exec.other", "core.group", "core.pairwise", "core.canonicalize", "dstruct.union",
    "spatial.index", "join.pairs", "join.fused", "stream.ingest", "engine.stats",
    "engine.cost", "engine.sharded", "storage.cache", "storage.fingerprint",
    "table.insert", "table.stats", "server.json",
)
# Paper Figure 12: each SGB query over the same derived relation as a GB query.
SGB_BASELINE = {"sgb1": "gb1", "sgb2": "gb1", "sgb3": "gb2", "sgb4": "gb2",
                "sgb5": "gb3", "sgb6": "gb3"}


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def provenance(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit, "seed": seed}


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def q_error(estimate: float, actual: float) -> float:
    return max(estimate / actual, actual / estimate)


def timed_setup(name: str, seed: int, smoke: bool, trace_server: bool = False):
    start = perf_counter()
    workload = WORKLOADS[name](seed, smoke)
    if trace_server:
        workload.trace_server = True
    workload.setup()
    return workload, perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """One cold start in a fresh process; returns its set-up seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
           str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> tuple:
    probes = [] if smoke else [setup_probe(name, seed) for _ in range(SETUP_RUNS - 1)]
    workload, setup_s = timed_setup(name, seed, smoke)
    try:
        phase = workload.run(seconds)
        peak = workload.peak_rss_mb()
        workload.check()
    finally:
        workload.close()
    latencies = phase.all_latencies()
    metrics = {
        "setup_s": statistics.median(probes + [setup_s]),
        "ops_per_s": phase.completed / phase.wall_s,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "error_rate": phase.failed / phase.attempted,
        "peak_rss_mb": peak,
    }
    return phase, metrics


def traced(name: str, seed: int, seconds: float, smoke: bool) -> tuple:
    # The server process installs its own wrappers at boot, inactive until
    # the traced half; in-process workloads install them here.
    server = name == "http_ingest"
    workload, _ = timed_setup(name, seed, smoke, trace_server=server)
    tracer = tracing.Tracer()
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    try:
        untraced = workload.run(seconds / 2)
        installation = None if server else tracing.install(tracer)
        try:
            traced_phase = workload.run(seconds / 2, traced=True)
        finally:
            if installation is not None:
                installation.uninstall()
        tracing.assert_uninstalled()
        workload.check()
    finally:
        workload.close()
    if server:
        spans = tracing.read_spans(workload.span_path)
    else:
        spans = tracer.spans
        tracing.write_spans(spans, spans_path)
    metrics = layer_metrics(workload, spans, untraced, traced_phase)
    both = Phase(attempted=untraced.attempted + traced_phase.attempted,
                 failed=untraced.failed + traced_phase.failed)
    return both, metrics


def layer_metrics(workload, spans, untraced, traced_phase) -> dict:
    n_ops = traced_phase.completed
    totals = tracing.layer_self_seconds(spans)
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_ms"] = 1000.0 * totals.get(name, 0.0) / n_ops
    metrics["exec.sgb_self_ms"] = 1000.0 * totals.get("exec.sgb", 0.0) / n_ops

    def attr_sum(span_name: str, attr: str) -> float:
        return sum((s.attrs or {}).get(attr, 0) for s in spans if s.name == span_name)

    ops = [s for s in spans if s.name == "op" and s.attrs]
    sgb_ops = [s for s in ops if s.attrs["sgb"]]
    n_sgb = max(1, len(sgb_ops))
    metrics["plan.rewrites_applied"] = attr_sum("op", "rewrites") / max(1, len(ops))
    rows_out = attr_sum("op", "rows")
    metrics["exec.rows_scanned_per_row_out"] = (
        attr_sum("exec.scan", "rows") / rows_out if rows_out else 0.0
    )
    metrics["core.pairs_verified"] = attr_sum("core.pairwise", "pairs") / n_ops
    metrics["core.groups_out"] = attr_sum("core.group", "groups") / n_ops
    edges = attr_sum("dstruct.union", "edges")
    metrics["dstruct.union_merge_frac"] = (
        attr_sum("dstruct.union", "merges") / edges if edges else 0.0
    )
    planned = [s for s in sgb_ops if "mode" in s.attrs]
    metrics["engine.sharded_frac"] = (
        sum(1 for s in planned if s.attrs["mode"] == "sharded") / n_sgb
    )
    metrics["engine.rows_q_error"] = geomean([
        q_error(s.attrs["est_rows"], s.attrs["rows"]) for s in planned
        if s.attrs["est_rows"] > 0 and s.attrs["rows"] > 0
    ])
    grouping = grouping_seconds_by_op(spans)
    metrics["engine.cost_q_error"] = geomean([
        q_error(s.attrs["est_cost"], grouping[s.id]) for s in planned
        if s.attrs["est_cost"] > 0 and grouping.get(s.id, 0.0) > 0
    ])
    hits = attr_sum("storage.cache", "hits")
    metrics["storage.cache_hit_frac"] = hits / n_sgb
    metrics["storage.cache_lookup_frac"] = (hits + attr_sum("storage.cache", "misses")) / n_sgb

    # Route times come from the server's own counters; everything else in
    # an op that no span covers is unaccounted.
    client_s = sum(traced_phase.all_latencies())
    layered_s = sum(totals.values()) - totals.get("op", 0.0)
    if workload.name == "http_ingest":
        route_s = 0.0
        for route in ("POST /v1/query", "POST /v1/load"):
            before = workload.routes_before.get(route, {"count": 0, "total_ms": 0.0})
            after = workload.routes_after[route]
            count = after["count"] - before["count"]
            total_ms = after["total_ms"] - before["total_ms"]
            route_s += total_ms / 1000.0
            short = route.rsplit("/", 1)[1]
            metrics[f"server.route_{short}_ms"] = total_ms / count if count else 0.0
        metrics["server.overhead_ms"] = 1000.0 * (client_s - route_s) / n_ops
        metrics["trace.unaccounted_frac"] = (route_s - layered_s) / client_s
    else:
        metrics["server.route_query_ms"] = 0.0
        metrics["server.route_load_ms"] = 0.0
        metrics["server.overhead_ms"] = 0.0
        metrics["trace.unaccounted_frac"] = (client_s - layered_s) / client_s
    untraced_rate = untraced.completed / untraced.wall_s
    traced_rate = traced_phase.completed / traced_phase.wall_s
    metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0

    # Statement medians come from the untraced half.
    medians = {shape: 1000.0 * statistics.median(values)
               for shape, values in untraced.latencies.items()}
    for shape in ("sgb_any", "sgb_all", "join_group", "window", "gb1", "gb2", "gb3", "sgb1",
                  "sgb2", "sgb3", "sgb4", "sgb5", "sgb6", "load", "query"):
        metrics[f"stmt.{shape}_ms"] = medians.get(shape, 0.0)
    ratios = [medians[sgb] / medians[gb] for sgb, gb in SGB_BASELINE.items()
              if sgb in medians and gb in medians]
    metrics["stmt.sgb_overhead"] = geomean(ratios)
    return metrics


def grouping_seconds_by_op(spans) -> dict:
    """Inclusive time of each op's outermost grouping spans, keyed by op span id."""
    by_id = {s.id: s for s in spans}
    out: dict = {}
    for span in spans:
        if span.name not in GROUPING_SPANS:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != "op":
            if parent.name in GROUPING_SPANS:
                break
            parent = by_id.get(parent.parent)
        if parent is not None and parent.name == "op":
            out[parent.id] = out.get(parent.id, 0.0) + (span.end - span.start)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    spec = contract()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        phase, metrics = (traced if trace else end_to_end)(name, seed, seconds, smoke)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    for metric in wanted:
        print(f"{name} {metric['name']} = {metrics[metric['name']]:.6g} {metric['unit']}")
    if not trace:
        print(f"{name} error_rate = {metrics['error_rate']:.6g} fraction")
        if phase.completed < 100 and not smoke:
            print(f"warning: only {phase.completed} ops completed", file=sys.stderr)
    return {
        "correct": True,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def smoke(seed: int) -> int:
    """Every workload at a tiny size, untraced and traced."""
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, seed, 1.0, trace, smoke=True)
            if not result["correct"]:
                print(f"smoke: {name} answered wrongly", file=sys.stderr)
                return 1
            tracing.assert_uninstalled()
    print("smoke ok: every workload emitted every metric; wrappers uninstalled")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if importlib.util.find_spec("repro") is None:
        print(f"no engine sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload, setup_s = timed_setup(args.workload, args.seed, smoke=False)
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.smoke and args.workload is None:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"provenance": provenance(args.seed)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
