"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload churn-proposed --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs the same work twice — untraced, then with layer
spans (see ``layertrace.py``) — asserts that both passes produced the same
checked outputs, and prints the per-layer metrics.  Without ``--workload``
every workload runs, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs are checked
against ``reference/<workload>.json`` when the seed and run length match the
reference's, and for self-consistency on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
REFERENCE_DIR = os.path.join(HERE, "reference")
#: Lists every metric with its unit; a run must print exactly those.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("churn-proposed", "churn-bd-lossy", "mobile-campaign", "establish-wide")
DEFAULT_SEED = 0
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    origin = os.path.realpath(getattr(repro, "__file__", None) or "")
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: repro was imported from {origin}, not from {SRC}")


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  Up to twenty samples that percentile
    would not lie above the median, so the 90th percentile (interpolated) is
    returned instead.
    """
    ordered = sorted(values)
    if len(ordered) <= 20:
        return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0
    rank = len(ordered) - 10  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def quarter_medians(result) -> Tuple[float, float]:
    """Median operation CPU seconds, unscaled, of the first and of the last
    quarter of a run."""
    values, quarter = [end - start for start, end in result.events], result.quarter
    return statistics.median(values[:quarter]), statistics.median(values[-quarter:])


# ----------------------------------------------------------------- set-up
def setup_probe(args) -> None:
    """Body of one set-up probe process.

    Prints the CPU seconds this process spent from its start through
    importing ``repro``, the program's set-up and the runner/spec
    construction, leaving out the benchmark's own input generation.
    """
    _import_program()
    import hostspeed
    import workloads

    generating = time.process_time()
    workload = workloads.build(args.workload, args.seed, args.seconds, OUT_DIR)
    generated = time.process_time() - generating
    workload.prepare()
    setup = time.process_time() - generated
    speed = statistics.mean(hostspeed.timed_kernel() for _ in range(3))
    print(f"ready {setup!r} {speed!r}", flush=True)


def measure_setup(args) -> List[float]:
    """Set-up seconds of fresh processes, each scaled by the host speed
    measured right after it."""
    import hostspeed

    samples = []
    for _ in range(SETUP_PROBES):
        command = [
            sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ]
        probe = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        words = probe.stdout.split()
        if probe.returncode != 0 or len(words) != 3 or words[0] != "ready":
            sys.exit("perfbench: set-up probe failed")
        samples.append(float(words[1]) * hostspeed.REFERENCE_S / float(words[2]))
    return samples


# ------------------------------------------------------------------ checks
def check(workload, result) -> List[str]:
    """Reference mismatches and self-consistency problems, one per failure."""
    failures = list(result.problems)
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if workload.seed != DEFAULT_SEED:
        return failures
    with open(path) as handle:
        reference = json.load(handle)
    if reference["size"] != workload.size:
        print(f"note: run length {workload.size} differs from the reference's; "
              "checking self-consistency only")
        return failures
    outputs = json.loads(json.dumps(result.outputs))
    for key, want in reference["outputs"].items():
        if outputs.get(key) != want:
            failures.append(f"{key}: differs from the reference")
    return failures


def write_reference(workload, result) -> None:
    outputs = json.loads(json.dumps(result.outputs))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    with open(path, "w") as handle:
        json.dump({"seed": workload.seed, "size": workload.size, "outputs": outputs},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


# --------------------------------------------------------------------- runs
def end_to_end(workload, result, setup_samples, meter) -> Dict[str, float]:
    scale = meter.scale
    events = [meter.scaled(*span) for span in result.events]
    establish = [meter.scaled(*span) for span in result.establish]
    tail_value, tail_pct = tail(events)
    first_q, last_q = quarter_medians(result)
    print(f"workload {workload.name} seed {workload.seed} units {workload.units}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"pass cpu {result.cpu:.3f} s, wall {result.wall:.3f} s; host speed scale "
          f"{scale:.4f} from {len(meter.samples)} kernel samples")
    print(f"event_tail_s is p{tail_pct:.1f} of {len(events)} operations")
    print(f"operation p50 first quarter {first_q * scale:.4f} s, last quarter {last_q * scale:.4f} s")
    print(f"establishment steps: {', '.join(f'{t:.4f}' for t in establish)}")
    return {
        "setup_s": statistics.median(setup_samples),
        # A mean: establishment cost is multimodal (one to four retransmission
        # waves under loss; two protocols per campaign replication), and the
        # median of a handful of samples jumps between the modes.
        "establish_s": statistics.mean(establish),
        "events_per_s": len(events) / sum(events),
        "event_p50_s": statistics.median(events),
        "event_tail_s": tail_value,
        "cells_ok_per_s": result.cells_ok / (result.cells_s * scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, tracer, registry) -> Dict[str, float]:
    counters = registry.snapshot()["counters"]
    counts = tracer.counts
    metrics = tracer.metrics(traced.wall)
    first_q, last_q = quarter_medians(untraced)
    messages = traced.traffic.get("messages", 0)
    verified = counts["signatures.verify_direct"] + counts["signatures.verify_batched"]
    campaign = traced.campaign
    metrics.update({
        "symmetric.aes_blocks": counts["symmetric.aes_blocks"],
        "engine.events": counters.get("engine.events", 0),
        "engine.deliveries": counters.get("engine.deliveries", 0),
        "engine.timeouts": counters.get("engine.timeouts", 0),
        "engine.retransmission_waves": counters.get("engine.retransmission_waves", 0),
        "network.messages": messages,
        "network.transmissions": traced.traffic.get("transmissions", 0),
        "network.tx_per_message": traced.traffic.get("transmissions", 0) / max(1, messages),
        "mathutils.modexp": counters.get("crypto.modexp", 0),
        "mathutils.multi_exp": counters.get("crypto.multi_exp", 0),
        "groups.exp_g": counts["groups.exp_g"],
        "groups.ec_mul": counts["groups.ec_mul"],
        "signatures.sign": counts["signatures.sign"],
        "signatures.verify": verified,
        "signatures.batch_frac": counts["signatures.verify_batched"] / max(1, verified),
        "mobility.relay_bits": traced.traffic.get("relay_bits", 0),
        "energy.record_calls": counts["energy.record_calls"],
        "sim.snapshot_s": tracer.snapshot_s,
        "sim.event_p50_q1_s": first_q,
        "sim.event_p50_q4_s": last_q,
        "campaign.cache_hits": campaign.get("cache_hits", 0),
        "campaign.cache_misses": campaign.get("cache_misses", 0),
        "campaign.hit_frac": campaign.get("hit_frac", 0.0),
        "campaign.replay_s": campaign.get("replay_s", 0.0),
        "trace.overhead": traced.cpu / untraced.cpu,
    })
    return metrics


def run_one(args) -> int:
    _import_program()
    import workloads

    workload = workloads.build(args.workload, args.seed, args.seconds, OUT_DIR)
    workload.prepare()
    if not args.trace:
        import hostspeed

        setup_samples = measure_setup(args)
        with hostspeed.SpeedMeter() as meter:
            workload.clock = meter.clock
            result = workload.run()
        if args.write_reference:
            write_reference(workload, result)
        failures = check(workload, result)
        metrics = end_to_end(workload, result, setup_samples, meter)
    else:
        import layertrace
        from repro import telemetry

        untraced = workload.run()
        tracer = layertrace.LayerTracer()
        tracer.install(extra_modules=[workloads])
        registry = telemetry.MetricsRegistry()
        previous = telemetry.install(None, registry)
        try:
            traced = workload.run()
        finally:
            telemetry.uninstall(previous)
        failures = check(workload, traced)
        if json.dumps(traced.outputs, sort_keys=True) != json.dumps(untraced.outputs, sort_keys=True):
            failures.append("the traced pass's outputs differ from the untraced pass's")
        metrics = per_layer(untraced, traced, tracer, registry)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload.name}-{workload.seed}")
        tracer.write(spans)
        print(f"{len(tracer.span_parent)} spans written to {os.path.relpath(spans, ROOT)}.{{json,bin}}")
        result = traced
        for layer in sorted(layertrace.LAYERS + ("other",), key=lambda l: -metrics[f"{l}.self_s"])[:6]:
            print(f"  {layer:<11} self {metrics[f'{layer}.self_s']:8.3f} s")
    failed_all = len(result.known_failures) + len(result.problems)
    print(f"failed_frac {failed_all / max(1, result.attempted):.4f} "
          f"({failed_all} of {result.attempted} operations)")
    for failure in result.known_failures:
        print(f"known defect: {failure}")
    for failure in failures:
        print(f"FAILED: {failure}")
    metric_units = listed_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(metric_units):
        sys.exit(f"perfbench: metrics differ from {BENCHMARK}: "
                 f"{sorted(set(metrics) ^ set(metric_units))}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6g} {metric_units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result.attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": metric_units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def listed_units(kind: str) -> Dict[str, str]:
    """``{metric: unit}`` for the ``end_to_end`` or ``per_layer`` list."""
    with open(BENCHMARK) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def run_all(args) -> int:
    """Every workload, each in a fresh process; their lines pass through."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="default: every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference (default seed only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
