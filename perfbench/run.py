#!/usr/bin/env python3
"""Benchmark command: build draw.exe, run one workload, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  A run is a sequence of cycles; a cycle
runs every draw of the workload once, each draw in a fresh draw.exe process
(see draw.ml) between two passes of calib.exe, the host-speed yardstick
(see calib.ml).  Cycles repeat until --seconds have passed.

--trace 0 prints the end-to-end metrics: host times are in reference
seconds (scaled by the calib.exe passes around each draw); host-time
rates divide the work of one cycle by the sum over draws of each draw's
median time across cycles; simulated-time figures pool the first cycle's
samples (they are identical in every cycle); setup_s and peak_heap_mb
are medians over all draw processes.

--trace 1 alternates untraced and traced cycles and prints the per-layer
metrics of the traced cycles, plus trace.overhead (traced over untraced
World.run time).

Every draw must pass draw.exe's correctness checks and must produce the
same sim_digest in every cycle, traced or not; the pooled run must show
its workload's target layer at work.  The last stdout line is one JSON
object; the exit code is 0 only when everything is correct.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

DRAW_EXE = os.path.join("_build", "default", "perfbench", "draw.exe")
CALIB_EXE = os.path.join("_build", "default", "perfbench", "calib.exe")

# Host seconds one calib.exe pass takes on a 2-vCPU Xeon (Sapphire
# Rapids, KVM guest) at its median speed.  Host times are reported in
# reference seconds: scaled by CALIB_REF_S over the passes run around
# the measured draw.  The constant cancels in any comparison of two
# commits on one host.
CALIB_REF_S = 0.135

# Draws per cycle: enough independent flow populations that a run's
# simulated-time figures do not hinge on one seeded population.
DRAWS = {"scale-attmpls": 1, "soak-b4": 16}

END_TO_END = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("updates_per_s", "updates/s"),
    ("probes_per_s", "pkts/s"),
    ("peak_heap_mb", "MB"),
    ("update_p50_sim_ms", "ms"),
    ("update_p99_sim_ms", "ms"),
    ("probe_p50_sim_ms", "ms"),
    ("probe_p99_sim_ms", "ms"),
    ("update_ok_ratio", "ratio"),
]

PER_LAYER = [
    ("topo.build_s", "s"),
    ("topo.paths_s", "s"),
    ("world.make_s", "s"),
    ("world.install_flow_us.p50", "us"),
    ("world.install_flow_us.p99", "us"),
    ("world.install_flow_words", "words"),
    ("control.prepare_us_per_update.p50", "us"),
    ("control.prepare_us_per_update.p99", "us"),
    ("control.prepare_words_per_update", "words"),
    ("control.push_us.p50", "us"),
    ("control.push_us.p99", "us"),
    ("control.push_words", "words"),
    ("control.share", "ratio"),
    ("dessim.events", "count"),
    ("dessim.run_self_ns_per_event", "ns"),
    ("dessim.run_self_words_per_event", "words"),
    ("dessim.queue_ns_per_event", "ns"),
    ("dessim.dispatch_self_ns_per_event", "ns"),
    ("dessim.pending.p50", "count"),
    ("dessim.pending.max", "count"),
    ("netsim.data", "count"),
    ("netsim.ctl_down", "count"),
    ("netsim.ctl_up", "count"),
    ("netsim.resubmissions", "count"),
    ("netsim.fault_drops", "count"),
    ("netsim.events_per_update", "events/update"),
    ("netsim.events_per_probe", "sends/probe"),
    ("p4rt.process_self_ns_per_call", "ns"),
    ("p4rt.processes", "count"),
    ("p4rt.register_reads", "count"),
    ("p4rt.register_writes", "count"),
    ("p4rt.parse_errors", "count"),
    ("switch.forwarded", "count"),
    ("traffic.drain_ns_per_probe", "ns"),
    ("traffic.drain_words_per_probe", "words"),
    ("switch.commits", "count"),
    ("switch.waits", "count"),
    ("switch.resubmits_per_commit", "ratio"),
    ("switch.alarms", "count"),
    ("switch.withdrawals", "count"),
    ("recovery.retransmissions", "count"),
    ("recovery.reroutes", "count"),
    ("recovery.aborts", "count"),
    ("recovery.give_ups", "count"),
    ("invariants.check_us", "us"),
    ("obs.recorder_notes_per_event", "notes/event"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.promoted_words_per_event", "words"),
    ("trace.overhead", "x"),
    ("bench.calib_ms", "ms"),
    ("updates.completed", "count"),
    ("updates.superseded", "count"),
    ("update_fail_ratio", "ratio"),
    ("probes.new_path", "count"),
    ("probes.excused", "count"),
    ("probe_fail_ratio", "ratio"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build draw.exe from source; any failure ends the run."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/draw.exe", "./perfbench/calib.exe"],
            capture_output=True, text=True, env=env, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not (os.path.exists(DRAW_EXE) and os.path.exists(CALIB_EXE)):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def run_draw(workload, seed, draw, traced):
    try:
        proc = subprocess.run(
            [DRAW_EXE, "--workload", workload, "--seed", str(seed), "--draw", str(draw),
             "--trace", "1" if traced else "0"],
            capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        fail("draw %d timed out" % draw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("draw.exe exited with %d on draw %d" % (proc.returncode, draw))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_calib():
    try:
        proc = subprocess.run([CALIB_EXE], capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        fail("calib.exe timed out")
    if proc.returncode != 0:
        fail("calib.exe exited with %d" % proc.returncode)
    return float(proc.stdout.split()[0])


def run_cycle(workload, seed, draws, traced):
    """Every draw of the workload once, each between two calib.exe passes.

    A draw's "scale" is CALIB_REF_S over the mean of the passes right
    before and after it: its host times times its scale are reference
    seconds."""
    calib = [run_calib()]
    cycle = []
    for i in range(draws):
        d = run_draw(workload, seed, i, traced)
        calib.append(run_calib())
        d["calib_s"] = (calib[i] + calib[i + 1]) / 2.0
        d["scale"] = CALIB_REF_S / d["calib_s"]
        cycle.append(d)
    return cycle


def quantile(samples, p):
    """Type-7 quantile (the repo's Obs.Quantile) of a non-empty list."""
    xs = sorted(samples)
    h = (len(xs) - 1) * p / 100.0
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def total(draws, key):
    return sum(d["counts"][key] for d in draws)


def timing(draws, key):
    return sum(d["timings"][key] for d in draws)


def ref_s(d, key, scaled=True):
    """A host time of draw [d], in reference seconds unless not [scaled]."""
    return d["timings"][key] * (d["scale"] if scaled else 1.0)


def rates(cycles, scaled=True):
    """Host-time rates: each draw's median time over the cycles in
    reference seconds, summed (README.md, "Host-time rates")."""
    def median_time(key):
        return sum(statistics.median(ref_s(c[i], key, scaled) for c in cycles)
                   for i in range(len(cycles[0])))
    first = cycles[0]
    run_s = median_time("run_s")
    return {
        "events_per_s": total(first, "events") / run_s,
        "updates_per_s": total(first, "completed") / run_s,
        "probes_per_s": total(first, "probes") / (run_s + median_time("drain_s")),
    }


def simulated(draws):
    """Seed-determined figures of one cycle, pooled over its draws."""
    update_ms = [x / 1000.0 for d in draws for x in d["update_us"]]
    probe_ms = [x / 1000.0 for d in draws for x in d["probe_us"]]
    pushed = total(draws, "pushed")
    probes = total(draws, "probes")
    failed_updates = sum(total(draws, k) for k in ("aborted", "gave_up", "unresolved"))
    return {
        "update_p50_sim_ms": quantile(update_ms, 50),
        "update_p99_sim_ms": quantile(update_ms, 99),
        "probe_p50_sim_ms": quantile(probe_ms, 50),
        "probe_p99_sim_ms": quantile(probe_ms, 99),
        "update_ok_ratio": 1.0 - failed_updates / pushed,
        "update_fail_ratio": failed_updates / pushed,
        "probe_fail_ratio": total(draws, "probe_violations") / probes,
    }


def span(draws, name, field):
    return sum(d["spans"].get(name, {}).get(field, 0.0) for d in draws)


def span_samples(draws, name):
    return [x for d in draws for x in d["spans"].get(name, {}).get("samples_ns", [])]


def per_layer(draws, untraced):
    """Per-layer metrics of one traced cycle (and its untraced twin)."""
    n = len(draws)
    events = total(draws, "events")
    pushed = total(draws, "pushed")
    probes = total(draws, "probes")
    run_ns = span(draws, "harness.world.run", "ns")
    dispatch_ns = span(draws, "sim.dispatch", "ns")
    drain = ("harness.traffic.drain", "harness.traffic.finalize")
    install = span_samples(draws, "harness.world.install_flow")
    prep = [x for d in draws for x in d["prep_ns_per_update"]]
    push = span_samples(draws, "control.push")
    pending = [x for d in draws for x in d["pending"]] or [0.0]
    m = {
        "topo.build_s": span(draws, "topo.build", "ns") / n / 1e9,
        "topo.paths_s": span(draws, "topo.paths", "ns") / n / 1e9,
        "world.make_s": span(draws, "harness.world.make", "ns") / n / 1e9,
        "world.install_flow_us.p50": quantile(install, 50) / 1e3,
        "world.install_flow_us.p99": quantile(install, 99) / 1e3,
        "world.install_flow_words": span(draws, "harness.world.install_flow", "words") / len(install),
        "control.prepare_us_per_update.p50": quantile(prep, 50) / 1e3,
        "control.prepare_us_per_update.p99": quantile(prep, 99) / 1e3,
        "control.prepare_words_per_update": span(draws, "control.prepare_batch", "words") / pushed,
        "control.push_us.p50": quantile(push, 50) / 1e3,
        "control.push_us.p99": quantile(push, 99) / 1e3,
        "control.push_words": span(draws, "control.push", "words") / len(push),
        "control.share": (span(draws, "control.prepare_batch", "ns")
                          + span(draws, "control.push", "ns")) / run_ns,
        "dessim.events": events,
        "dessim.run_self_ns_per_event": span(draws, "harness.world.run", "prog_ns") / events,
        "dessim.run_self_words_per_event": span(draws, "harness.world.run", "prog_words") / events,
        "dessim.queue_ns_per_event": (run_ns - dispatch_ns) / events,
        "dessim.dispatch_self_ns_per_event": span(draws, "sim.dispatch", "self_ns") / events,
        "dessim.pending.p50": quantile(pending, 50),
        "dessim.pending.max": max(pending),
        "netsim.events_per_update": events / pushed,
        "netsim.events_per_probe": total(draws, "netsim.data") / probes,
        "p4rt.process_self_ns_per_call": (span(draws, "p4rt.pipeline.process", "self_ns")
                                          / max(1, span(draws, "p4rt.pipeline.process", "calls"))),
        "p4rt.processes": span(draws, "p4rt.pipeline.process", "calls"),
        "traffic.drain_ns_per_probe": sum(span(draws, s, "ns") for s in drain) / probes,
        "traffic.drain_words_per_probe": sum(span(draws, s, "words") for s in drain) / probes,
        "switch.resubmits_per_commit": (total(draws, "netsim.resubmissions")
                                        / max(1, total(draws, "switch.commits"))),
        "invariants.check_us": (span(draws, "harness.invariants.check_structural", "ns")
                                / span(draws, "harness.invariants.check_structural", "calls") / 1e3),
        "obs.recorder_notes_per_event": total(draws, "obs.recorder_notes") / events,
        "gc.promoted_words_per_event": total(draws, "gc.promoted_words") / events,
        "trace.overhead": run_ns / 1e9 / timing(untraced, "run_s"),
        "bench.calib_ms": statistics.median(d["calib_s"] for d in draws + untraced) * 1e3,
        "updates.completed": total(draws, "completed"),
        "updates.superseded": total(draws, "superseded"),
        "probes.new_path": total(draws, "probe_new_path"),
        "probes.excused": total(draws, "probe_excused"),
    }
    for key in ("netsim.data", "netsim.ctl_down", "netsim.ctl_up", "netsim.resubmissions",
                "netsim.fault_drops", "p4rt.register_reads", "p4rt.register_writes",
                "p4rt.parse_errors",
                "switch.forwarded", "switch.commits", "switch.waits",
                "switch.alarms", "switch.withdrawals",
                "recovery.retransmissions", "recovery.reroutes",
                "recovery.aborts", "recovery.give_ups", "gc.minor_collections",
                "gc.major_collections"):
        m[key] = total(draws, key)
    sim = simulated(draws)
    m["update_fail_ratio"] = sim["update_fail_ratio"]
    m["probe_fail_ratio"] = sim["probe_fail_ratio"]
    return m


def target_misses(workload, draws):
    """Ways a run can miss the layer its workload exists to load."""
    misses = []
    if total(draws, "completed") < 1000:
        misses.append("only %d completed updates (< 1000)" % total(draws, "completed"))
    if workload == "soak-b4" and total(draws, "probe_new_path") == 0:
        misses.append("no new-path probes")
    return misses


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DRAWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    draws = DRAWS[args.workload]
    modes = [False, True] if args.trace else [False]
    cycles = {False: [], True: []}
    started = time.monotonic()
    problems = []
    # A failed check does not end the run early: every run measures for
    # --seconds, so its host-time figures rest on as many repeats.
    while True:
        for traced in modes:
            cycle = run_cycle(args.workload, args.seed, draws, traced)
            cycles[traced].append(cycle)
            for p in ("draw %d: %s" % (d["draw"], c) for d in cycle for c in d["checks"]):
                if p not in problems:
                    problems.append(p)
        if time.monotonic() - started >= args.seconds:
            break

    # Every cycle, traced or not, must reproduce the first one exactly.
    digests = [d["digest"] for d in cycles[False][0]]
    if any([d["digest"] for d in c] != digests for c in cycles[False] + cycles[True]):
        problems.append("sim_digest differs between runs of one seed")
    first = cycles[False][0]
    problems += target_misses(args.workload, first)
    sim_digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16]

    print("workload %s seed %d: %d cycle(s) of %d draw(s), %d completed updates, %d probes"
          % (args.workload, args.seed, len(cycles[False]), draws,
             total(first, "completed"), total(first, "probes")))
    print("sim_digest %s (draws: %s)" % (sim_digest, " ".join(digests)))

    if args.trace:
        layers = [per_layer(t, u) for t, u in zip(cycles[True], cycles[False])]
        spec = PER_LAYER
        values = {name: statistics.median(m[name] for m in layers) for name, _ in spec}
    else:
        values = rates(cycles[False])
        values.update(simulated(first))
        all_draws = [d for c in cycles[False] for d in c]
        values["setup_s"] = statistics.median(ref_s(d, "setup_s") for d in all_draws)
        values["peak_heap_mb"] = statistics.median(d["timings"]["peak_heap_mb"] for d in all_draws)
        spec = END_TO_END
        unscaled = rates(cycles[False], scaled=False)
        unscaled["setup_s"] = statistics.median(ref_s(d, "setup_s", False) for d in all_draws)
        print("host seconds, unscaled: " + ", ".join(
            "%s %.6g" % kv for kv in sorted(unscaled.items())))
        print("calib.exe pass: median %.6f s over %d passes" % (
            statistics.median(d["calib_s"] for d in all_draws), len(all_draws)))
    for name, unit in spec:
        print("%-36s %16.6f %s" % (name, values[name], unit))
    for p in problems:
        print("FAIL " + p)

    attempted = total(first, "pushed") + total(first, "probes")
    failed = total(first, "unresolved") + total(first, "probe_violations")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
