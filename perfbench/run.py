"""plumbtoric benchmark: four closed-loop workloads with per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in a fresh process

Workloads (one client each; a request starts when the previous one ended):

  classify-sweep  toric.classify + docio.report_to_doc on one chain of the
                  criterion-06 set (136,160 chains), in seed-shuffled order.
  survey-cli      ``plumbtoric survey --n 2..6 --range -3..2 --jobs 2`` run
                  in-process; items are the 54,891 chains it enumerates.
  ech-generators  ``plumbtoric reeb-orbits`` on the README itinerary at
                  bounds (3k+1)/3, k = 10..17, and on seed-drawn SL(2,Z)
                  images of it at k = 14..17.
  geometry        32 seed-drawn sweep chains through moment_polygon,
                  render_svg, polygon_to_doc and blow_up_corner, plus
                  enumerate_orbits on a seed-drawn image of a convex
                  multi-corner curve, as one request.

With ``--trace 0`` the run measures the named workload for ``--seconds`` and
reports throughput_per_s, latency_p50_ms, latency_tail_ms, peak_rss_mb and
setup_s; times are scaled to the reference machine speed (harness.Calibration)
and the result file keeps them unscaled too.  With ``--trace 1`` it runs the
traced slices of layers.py and reports every per-layer metric.  Either way
every output is checked against reference.json, taken at the seed commit;
the last line of stdout is one JSON object, and a result file goes to
perfbench/results/.  Self-test: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
from harness import (
    RESULTS,
    Calibration,
    ProgramMissing,
    environment,
    import_program,
    peak_rss_mb,
    run_cycles,
    tail,
)
from tracing import Tracer
from workloads import FULL, TINY, WORKLOADS

SETUP_REPEATS = 5
UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def layer_units():
    spec = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
    return {name: m["unit"] for name, m in spec["metrics"].items()}


def set_up(name, seed, scale, reference):
    """Import, input generation and warm-up, repeated; returns the last set-up."""
    times, workload, warm = [], None, None
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous set-up go before timing the next
        t0 = perf_counter()
        pt = import_program()
        workload = WORKLOADS[name](pt, reference, seed, scale)
        warm = run_cycles([workload.warmup()])
        times.append(perf_counter() - t0)
    return pt, workload, warm, times


def measure_end_to_end(workload, seconds, setups):
    """End-to-end metrics; times are scaled to the reference machine speed."""
    calibration = Calibration()
    tally = run_cycles(workload.cycles(), seconds, calibration=calibration)
    lat = sorted(tally.latencies_ns)
    percentile, tail_ns, beyond = tail(lat)
    raw = {
        "throughput_per_s": tally.items / (tally.busy_ns / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    f = calibration.factor
    metrics = dict(raw, throughput_per_s=raw["throughput_per_s"] / f)
    for name in ("latency_p50_ms", "latency_tail_ms", "setup_s"):
        metrics[name] = raw[name] * f
    detail = {
        "requests": len(lat),
        "latency_tail_percentile": percentile,
        "latency_tail_samples_beyond": beyond,
        "speed_factor": f,
        "calibration_samples": len(calibration.samples),
        "unscaled": raw,
    }
    return metrics, tally, detail


def run_one(args):
    scale = TINY if args.tiny else FULL
    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    pt, workload, warm, setups = set_up(args.workload, args.seed, scale, reference)
    gc.collect()
    gc.freeze()  # keep the benchmark's own tables out of the collector's scans
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    result["environment"] = environment()
    if args.trace:
        tracer = Tracer()
        metrics, tally, missing = layers.measure(
            pt, reference, args.seed, scale, args.workload, tracer
        )
        units = layer_units()
        result["layers_not_called"] = missing
        result["spans"] = tracer.summary()
        if not args.tiny:
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / ("spans_%s_seed%d.csv.gz" % (args.workload, args.seed)))
    else:
        warm.absorb(run_cycles([workload.prime()]))
        metrics, tally, detail = measure_end_to_end(workload, args.seconds, setups)
        units = UNITS
        result["detail"] = detail
        result["setup_runs_s"] = setups
    tally.absorb(warm)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["failed_ratio"] = tally.failed / tally.attempted
    result["failures"] = tally.failures
    return result


def report(result, tiny):
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print("%-15s %-34s %14.6g %s" % (name, metric, m["value"], m["unit"]))
    if "detail" in result:
        d = result["detail"]
        print(
            "%-15s latency_tail_ms is p%g of %d requests, %d beyond it"
            % (name, d["latency_tail_percentile"], d["requests"], d["latency_tail_samples_beyond"])
        )
    print("%-15s %-34s %14.6g ratio" % (name, "failed_ratio", result["failed_ratio"]))
    for failure in result["failures"]:
        print("%-15s FAILED %s" % (name, failure))
    if not tiny:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / ("BENCH_%s_seed%d_trace%d.json" % (name, result["seed"], result["trace"]))
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line, sort_keys=True))


def run_all(args):
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        result = run_one(args)
    except ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    report(result, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
