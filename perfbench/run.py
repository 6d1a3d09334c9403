"""miflab benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads: search, canon-k4, transversal-mif (see perfbench/README.md).
With --trace 0 the result carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run.  Set-up is measured in
SETUP_RUNS extra fresh interpreters and reported as the median.  Human
readable lines and a metadata line come first; the last stdout line is
the JSON result.  The exit code is 1 when any answer check failed and 2
when the checkout has no miflab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"      # results; the worker creates it
SETUP_RUNS = 9
DEADLINE_S = 170        # the whole invocation must end within 180 s

WORKLOADS = ("search", "canon-k4", "transversal-mif")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, better); the traced functions and where the
# wrappers sit are in tracing.LAYER_FUNCTIONS
_KEY_UNITS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"),
              "self_s": ("s", "lower"), "nodes": ("count", "lower"),
              "bytes": ("B", "lower"), "steps": ("count", "lower"),
              "accept_ratio": ("ratio", "higher")}
_LAYER_KEYS = (
    ("canonical.is_least_labeling", ("calls", "busy_s", "accept_ratio")),
    ("canonical.least_block_list", ("calls", "busy_s")),
    ("search.enumerate_mifs", ("calls", "busy_s", "self_s", "nodes")),
    ("search.search_isp", ("calls", "busy_s", "nodes")),
    ("search.write_checkpoint", ("calls", "busy_s", "bytes")),
    ("search.read_checkpoint", ("calls", "busy_s")),
    ("transversal.transversal_family", ("calls", "busy_s", "nodes")),
    ("transversal.tau_with_nodes", ("calls", "busy_s", "nodes")),
    ("mif.is_mif", ("calls", "busy_s", "self_s")),
    ("mif.merge", ("calls", "busy_s", "self_s")),
    ("mif.collapse", ("calls", "busy_s", "self_s", "steps")),
    ("isp.validate_isp", ("calls", "busy_s")),
    ("isp.bollobas_sum", ("calls", "busy_s")),
    ("isp.extract_isp", ("calls", "busy_s")),
    ("family.from_json", ("calls", "busy_s", "bytes")),
)
PER_LAYER = {f"{function}.{key}": _KEY_UNITS[key]
             for function, keys in _LAYER_KEYS for key in keys}
PER_LAYER.update({
    "constructions.busy_s": ("s", "lower"),
    "mif_k3_s": ("s", "lower"),
    "isp32_nodes_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _arguments():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _worker(args, extra, timeout):
    """Run one worker in a fresh interpreter; returns its JSON summary."""
    command = [sys.executable, "-I", str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}: {' '.join(extra)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _revision():
    """Git revision when the checkout is a repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "miflab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _percentile_ms(latencies, percent):
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[percent - 1]


def _end_to_end(setup_times, timed):
    calls = timed["call_medians_s"]
    return {"setup_s": statistics.median(setup_times), "wall_s": sum(calls),
            "op_p50_ms": _percentile_ms(calls, 50), "op_p90_ms": _percentile_ms(calls, 90)}


def _per_layer(summary):
    layers = summary["layers"]
    metrics = {}
    for name, (unit, _better) in PER_LAYER.items():
        if name.endswith(".accept_ratio"):
            base = name.rsplit(".", 1)[0]
            calls = layers.get(f"{base}.calls", 0)
            value = layers.get(f"{base}.accepted", 0) / calls if calls else 0.0
        elif name in ("mif_k3_s", "isp32_nodes_per_s"):
            value = summary[name]
        elif name == "trace.overhead_s":
            value = summary["traced_wall_s"] - sum(summary["call_medians_s"])
        elif name == "trace.overhead_frac":
            value = summary["traced_wall_s"] / sum(summary["call_medians_s"]) - 1
        else:
            value = layers.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    args = _arguments()
    if not (ROOT / "src" / "miflab" / "__init__.py").is_file():
        sys.stderr.write(f"no miflab sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    started = time.monotonic()
    setups = [_worker(args, ["--setup-only"], 60) for _ in range(SETUP_RUNS)]
    summary = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      DEADLINE_S - (time.monotonic() - started))
    setups.append(summary)

    e2e = _end_to_end([setup["setup_s"] for setup in setups], summary)
    raw = _end_to_end([setup["raw_setup_s"] for setup in setups], summary["raw"])
    raw["peak_rss_mb"] = e2e["peak_rss_mb"] = summary["peak_rss_mb"]
    fail_frac = summary["failed"] / summary["attempted"]
    speeds = summary["speed_factors"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {summary['passes']} x {summary['calls_per_pass']} calls  "
          f"setup samples {len(setups)}")
    print(f"  machine speed over {len(speeds)} probes: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f} of the reference")
    print(f"  {'metric':<20} {'at ref. speed':>14} {'raw':>14}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<20} {e2e[name]:>14.6f} {raw[name]:>14.6f} {unit}")
    print(f"  {'fail_frac':<20} {fail_frac:>14.6f} ({summary['failed']}/{summary['attempted']})")
    if args.workload == "search":
        print(f"  {'mif_k3_s':<20} {summary['mif_k3_s']:>14.6f} s")
        print(f"  {'isp32_nodes_per_s':<20} {summary['isp32_nodes_per_s']:>14.1f} 1/s")
    if args.trace:
        print(f"  traced wall_s {summary['traced_wall_s']:.6f} s against untraced "
              f"{e2e['wall_s']:.6f} s; spans in {summary['trace_file']}")
    for note in summary["failures"]:
        print(f"  FAILED {note}")
    meta = {"python": platform.python_version(), "git_revision": _revision(),
            "source_sha256": _source_digest(), "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": summary["passes"],
            "calls_per_pass": summary["calls_per_pass"],
            "setup_samples": len(setups), "raw": raw,
            "median_speed": statistics.median(speeds)}
    print(json.dumps({"meta": meta}))

    if args.trace:
        metrics = _per_layer(summary)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "failures": summary["failures"], **result},
                                 indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
