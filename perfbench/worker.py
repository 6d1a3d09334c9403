"""One measured process of the benchmark.

    python3 -I perfbench/worker.py --workload W --seed N --setup-only
    python3 -I perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Each invocation is a fresh interpreter, so imports, the package's caches
and peak memory start cold as they do for a command-line user.  The worker
times set-up (import plus input generation), then runs the workload's call
list in whole passes, one call at a time, until the passes have taken
--seconds and at least MIN_CALLS calls were made.  With --trace 1 the
passes alternate untraced and traced, so the tracing overhead is measured
in the same process.  Answers are checked after each pass, outside the
timed region.  Times are reported at the reference speed of speed.py; the
raw ones come along.  The last stdout line is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"      # traces and temporary checkpoint files
MIN_CALLS = 100     # op_p90_ms needs at least ten samples beyond it
MIN_PASSES = 3
MAX_FAILURE_NOTES = 5
SETUP_PROBES = 5


def _arguments():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


def _run_pass(ops, probe, tracer=None):
    """Run every op once, probing the machine's speed between calls.

    Returns per-op (latency, result, error, probe mark)."""
    gc.collect()
    outcomes = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.call_id = index
        mark = probe.mark
        begin = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an unexpected exception is a failed call
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - begin
        outcomes.append((latency, result, error, mark))
        probe.after_call(latency)
    probe.probe()
    return outcomes


def _check_pass(ops, outcomes, failures):
    failed = 0
    for op, (_latency, result, error, _mark) in zip(ops, outcomes):
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(failures) < MAX_FAILURE_NOTES:
                failures.append(f"{op.name}: {error}")
    return failed


def main() -> int:
    args = _arguments()
    setup_start = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import miflab
    from miflab import canonical, constructions, family, isp, mif, search, transversal
    import tracing
    import workloads
    from speed import REFERENCE_KERNEL_S, SpeedProbe

    if Path(miflab.__file__).resolve().parent != ROOT / "src" / "miflab":
        raise SystemExit(f"imported miflab from {miflab.__file__}, not from this checkout")
    modules = {"canonical": canonical, "constructions": constructions, "family": family,
               "isp": isp, "mif": mif, "search": search, "transversal": transversal}
    build = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        setup_tracer = tracing.Tracer()
        if args.trace:
            with setup_tracer.installed(modules):
                ops = build(args.seed, tmpdir)
        else:
            ops = build(args.seed, tmpdir)
        setup_s = perf_counter() - setup_start
        probe = SpeedProbe()
        probe.probe(SETUP_PROBES)
        setup_speed = probe.factor(0, SETUP_PROBES)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s * setup_speed, "raw_setup_s": setup_s}))
            return 0

        outcomes_by = {False: [], True: []}   # per pass (latency, mark) lists, by traced
        pass_spans = []
        stops = []      # (latency, mark, nodes) of the fixed-budget ISP(3,2) call
        k3_calls = []   # (latency, mark) of the plain enumerate_mifs(3, 9) call
        failures: list[str] = []
        attempted = failed = 0
        measured = 0.0

        def more_passes() -> bool:
            if measured < args.seconds or attempted < MIN_CALLS:
                return True
            if args.trace:
                return min(len(outcomes_by[False]), len(outcomes_by[True])) < 2
            return len(outcomes_by[False]) < MIN_PASSES

        while more_passes():
            traced = bool(args.trace) and len(outcomes_by[False]) > len(outcomes_by[True])
            if traced:
                tracer = tracing.Tracer()
                with tracer.installed(modules):
                    outcomes = _run_pass(ops, probe, tracer)
                pass_spans.append(tracer.spans)
            else:
                outcomes = _run_pass(ops, probe)
            measured += sum(latency for latency, _, _, _ in outcomes)
            attempted += len(ops)
            failed += _check_pass(ops, outcomes, failures)
            outcomes_by[traced].append([(latency, mark) for latency, _, _, mark in outcomes])
            for op, (latency, result, _error, mark) in zip(ops, outcomes):
                if traced or not result:
                    continue
                if op.tag == "mif_k3":
                    k3_calls.append((latency, mark))
                elif op.tag == "isp32":
                    stops.append((latency, mark, result))  # result: nodes at the stop
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # probes after the last call of a pass are in place now; scale every time
    latencies = {traced: [[latency * probe.factor(mark) for latency, mark in per_pass]
                          for per_pass in passes]
                 for traced, passes in outcomes_by.items()}
    raw = [[latency for latency, _ in per_pass] for per_pass in outcomes_by[False]]
    k3_times = [latency * probe.factor(mark) for latency, mark in k3_calls]
    isp32_rates = [nodes / (latency * probe.factor(mark)) for latency, mark, nodes in stops]
    summary = {
        "setup_s": setup_s * setup_speed,
        "raw_setup_s": setup_s,
        "passes": len(outcomes_by[False]) + len(outcomes_by[True]),
        "calls_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "call_medians_s": _call_medians(latencies[False]),
        "mif_k3_s": statistics.median(k3_times) if k3_times else 0.0,
        "isp32_nodes_per_s": statistics.median(isp32_rates) if isp32_rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "speed_factors": [REFERENCE_KERNEL_S / t for t in probe.times],
        "raw": {"call_medians_s": _call_medians(raw)},
    }
    if args.trace:
        summary["traced_wall_s"] = sum(_call_medians(latencies[True]))
        pass_layers = [
            tracing.aggregate(spans, {index: probe.factor(mark)
                                      for index, (_, mark) in enumerate(per_pass)})
            for spans, per_pass in zip(pass_spans, outcomes_by[True])]
        summary["layers"] = _layer_values(
            pass_layers, tracing.aggregate(setup_tracer.spans, {None: setup_speed}))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "call_id", "counts"],
            "op_names": [op.name for op in ops],
            "setup_spans": setup_tracer.spans,
            "traced_pass_spans": pass_spans,
        }))
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(summary))
    return 0


def _call_medians(per_pass) -> list[float]:
    """Each call's median latency across passes.  Their sum is the time of
    one pass and their percentiles are the per-call latency percentiles;
    medians per call shed a slow burst on the machine, and percentiles of
    pooled latencies of a short call list fall between two calls' extremes."""
    return [statistics.median(column) for column in zip(*per_pass)]


def _layer_values(pass_layers, setup_layers) -> dict:
    """Per-pass layer totals: times are the median over traced passes;
    counts come from the first traced pass, whose inputs depend on the seed
    alone (later passes take further labelings, and how many run depends
    on the machine).  The constructions layer runs in set-up, so it comes
    from the set-up spans."""
    keys = sorted({(name, key) for layers in pass_layers
                   for name, entry in layers.items() for key in entry})
    values = {}
    for name, key in keys:
        per_pass = [layers.get(name, {}).get(key, 0) for layers in pass_layers]
        values[f"{name}.{key}"] = (statistics.median(per_pass) if key.endswith("_s")
                                   else per_pass[0])
    values["constructions.busy_s"] = setup_layers["constructions"]["busy_s"]
    return values


if __name__ == "__main__":
    sys.exit(main())
