#!/usr/bin/env python3
"""PapyrusKV benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload hot_sync --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It builds perfbench/ (a CMake package that
compiles ../src) into .bench_build/, clears every PAPYRUSKV_* / PAPYRUS_*
variable, runs the workload on 2 emulated ranks with the device time scale
at 0, checks every returned value byte for byte, prints a readable report,
and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 its
per_layer ones: the benchmark's own spans around every call into
the store, registry deltas of the timed phase for the layers below, and a
replay of the run's key stream against the store classes.  A traced run also
prints a span self-time table and the tracing overhead.

Exit code 0 when every result was right; non-zero on a wrong, missing or
failed result, and when the run cannot be made (no sources, build failure).
"""
import argparse
import collections
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

# Per-layer metric -> (end-to-end metric it should move, workload where it
# does), for the report.  The metric names and units themselves come from
# BENCHMARK.json.
PER_LAYER_TARGET = collections.OrderedDict([
    ("core.get_remote_mean_us", ("get_p50_us", "hot_sync")),
    ("core.put_remote_mean_us", ("put_p50_us", "hot_sync")),
    ("core.get_local_mean_us", ("get_p50_us", "nvm_read")),
    ("core.put_local_p99_us", ("put_p99_us", "ingest")),
    ("core.fence_mean_us", ("window_p50_us", "batch_async")),
    ("core.barrier_s", ("barrier_s", "ingest")),
    ("core.remote_get_self_us", ("get_p50_us", "hot_sync")),
    ("async.get_op_mean_us", ("get_p50_us", "hot_sync")),
    ("async.put_op_mean_us", ("put_p50_us", "hot_sync")),
    ("async.ops_per_frame", ("ops_per_s, window_p50_us", "batch_async")),
    ("async.op_errors", ("error_rate", "all")),
    ("net.handler_service_mean_us", ("get_p50_us", "hot_sync")),
    ("net.wire_queue_us", ("get_p50_us", "hot_sync")),
    ("net.msgs_per_op", ("ops_per_s", "batch_async, hot_sync")),
    ("net.bytes_per_op", ("ops_per_s", "batch_async, hot_sync")),
    ("net.retries", ("error_rate, p99s", "all")),
    ("net.timeouts", ("error_rate, p99s", "all")),
    ("store.memtable_hit_ratio", ("get_p50_us", "hot_sync vs nvm_read")),
    ("store.cache_hit_ratio", ("get_p50_us", "nvm_read")),
    ("store.bloom_negative_ratio", ("get_p50_us", "nvm_read")),
    ("store.foreign_hits_per_remote_get", ("get_p50_us", "nvm_read")),
    ("store.flushes", ("barrier_s, ingest_mb_per_s", "ingest")),
    ("store.flush_mean_us", ("barrier_s, ingest_mb_per_s", "ingest")),
    ("store.migration_mean_us", ("barrier_s, ingest_mb_per_s", "ingest")),
    ("store.compactions", ("barrier_s, ingest_mb_per_s", "ingest")),
    ("store.compaction_s", ("barrier_s, ingest_mb_per_s", "ingest")),
    ("store.compaction_rewrite_ratio", ("write_amp", "ingest")),
    ("store.sstable_get_mean_us", ("get_p50_us", "nvm_read")),
    ("store.bloom_probe_ns", ("get_p50_us", "nvm_read")),
    ("store.crc_mb_per_s", ("get_p50_us", "nvm_read")),
    ("store.memtable_get_ns", ("get_p50_us", "hot_sync")),
    ("sim.dev.read_ops_per_get", ("get_p50_us", "nvm_read")),
    ("sim.dev.bytes_read_per_get", ("get_p50_us", "nvm_read")),
    ("sim.dev.bytes_written_per_user_byte", ("write_amp", "ingest")),
    ("sim.dev.write_ops", ("write_amp, ingest_mb_per_s", "ingest")),
    ("trace.overhead_pct", ("tracing cost in ops_per_s", "all")),
])


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "papyruskv.h")):
        log("perfbench: no PapyrusKV sources next to perfbench/ "
            "(run from the root of a checkout)")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def run_binary(args, run_dir):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.faults:
        cmd += ["--faults", args.faults]
    # The binary itself clears every PAPYRUSKV_* / PAPYRUS_* variable.  Its
    # own session, so a timeout also stops the set-up children it forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return None, 2
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        log("perfbench: no result from the run (exit %d)" % proc.returncode)
        return None, proc.returncode or 2


def fmt(m):
    return "%.6g %s" % (m["value"], m["unit"])


def print_table(title, header, rows):
    print(title)
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  " + "  ".join(str(c).rjust(w) for c, w in zip(r, widths)))


def span_self_times(path):
    """Self time per span kind: duration minus the children it covers."""
    spans = {}
    children = collections.defaultdict(int)
    with open(path) as f:
        next(f)
        for line in f:
            rank, idx, name, start, end, parent, _op, remote = line.split("\t")
            dur = int(end) - int(start)
            kind = name + {"1\n": ".remote", "0\n": ".local"}.get(remote, "")
            spans[(rank, idx)] = (kind, dur)
            if parent != "-1":
                children[(rank, parent)] += dur
    agg = collections.defaultdict(lambda: [0, 0, 0])
    for key, (kind, dur) in spans.items():
        a = agg[kind]
        a[0] += 1
        a[1] += dur
        a[2] += dur - children.get(key, 0)
    return agg


def report(result, args):
    env = result["env"]
    print("perfbench %s seed=%s seconds=%s trace=%s | nproc=%s %s %s (%s)%s"
          % (args.workload, args.seed, args.seconds, args.trace, env["nproc"],
             env["compiler"], env["build_type"], env["cxx_flags"].strip(),
             "" if env["optimized"] else "  WARNING: not an optimised build"))
    print("closed loop, %d ranks in one storage group, device time scale 0, "
          "%d set-up repetitions" % (env["ranks"], env["setup_reps"]))
    for name, m in result["report"].items():
        print("  %-22s %s" % (name, fmt(m)))
    print("  attempted %d, failed %d" % (result["attempted"], result["failed"]))
    for e in result["errors"]:
        print("  ERROR", e)
    if not args.trace:
        return
    layers = result["layers"]
    print("per-layer (traced run):")
    for name, m in layers.items():
        target = PER_LAYER_TARGET.get(name)
        note = "  -> %s (%s)" % target if target else ""
        print("  %-36s %-18s%s" % (name, fmt(m), note))
    if result["spans_file"]:
        print("spans:", result["spans_file"])
        agg = span_self_times(result["spans_file"])
        rows = [(k, a[0], "%.1f" % (a[1] / 1e6), "%.1f" % (a[2] / 1e6),
                 "%.2f" % (a[1] / a[0] / 1e3))
                for k, a in sorted(agg.items(), key=lambda kv: -kv[1][2])]
        print_table("span self time (traced slices; bench spans are the "
                    "harness between its calls):",
                    ("span", "calls", "total_ms", "self_ms", "mean_us"), rows)
    get = layers["core.get_remote_mean_us"]["value"]
    if get > 0:
        print("remote get, %.2f us = core self %.2f + wire/queue %.2f + "
              "handler service %.2f"
              % (get, layers["core.remote_get_self_us"]["value"],
                 layers["net.wire_queue_us"]["value"],
                 layers["net.handler_service_mean_us"]["value"]))
    print("tracing overhead: %.2f%% (%.0f traced vs %.0f untraced ops/s)"
          % (layers["trace.overhead_pct"]["value"],
             layers["trace.ops_per_s_traced"]["value"],
             layers["trace.ops_per_s_untraced"]["value"]))


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json:", e)
        return 2
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small key spaces and one set-up, for the self-tests")
    p.add_argument("--faults", default="",
                   help="PAPYRUSKV_FAULTS spec to arm (self-tests)")
    args = p.parse_args()

    if not build():
        return 2
    run_dir = os.path.join(ROOT, ".bench_build", "run",
                           "%s-%d" % (args.workload, os.getpid()))
    try:
        result, code = run_binary(args, run_dir)
        if result is None:
            return code
        if result["spans_file"]:
            # The traced run's spans outlive the run directory (one file per
            # workload, replaced by the next traced run).
            kept = os.path.join(ROOT, ".bench_build",
                                "spans_%s.tsv" % args.workload)
            os.replace(result["spans_file"], kept)
            result["spans_file"] = kept
        report(result, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    names = [m["name"] for m in bench["per_layer" if args.trace
                                      else "end_to_end"]]
    source = result["layers"] if args.trace else result["e2e"]
    metrics = {n: source[n] for n in names}
    correct = code == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
