#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--skip-seeds]

1. A smoke-size run of each workload, untraced and traced, prints every
   end-to-end / per-layer metric of BENCHMARK.json with its unit, plus the
   workload's own named numbers in the report, and is correct.
2. A batch_async run with the batch.op.fail failpoint armed (1% of the
   batched puts rank 1 applies fail) reports error_rate > 0 and exits
   non-zero.  A probability, not a single @opN hit: fire-and-forget puts
   have no event, the fence does not report their failure, so a single
   failed put shows only if a later get happens to read its key.
3. A copy holding only BENCHMARK.json and perfbench/ exits non-zero, fast,
   without printing a result.
4. Two seeds give end-to-end medians (3 runs each) within the benchmark's
   bounds, so a claim can be re-checked on a seed it was not tuned on.

Exits non-zero on the first failed check.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Numbers each workload's report must name (with a unit).
REPORT_NAMES = {
    "hot_sync": ["get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us"],
    "batch_async": ["get_multi_p50_us", "get_multi_p99_us", "window_p50_us"],
    "ingest": ["put_p50_us", "put_p99_us", "barrier_s", "ingest_mb_per_s"],
    "nvm_read": ["get_p50_us", "get_p99_us"],
}
COMMON_REPORT = ["setup_s", "ops_per_s", "write_amp", "space_amp",
                 "peak_rss_mb", "error_rate"]


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT, timeout=300):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout, result


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def units(section):
    return {m["name"]: m["unit"] for m in bench()[section]}


def smoke_runs():
    for w in (x["name"] for x in bench()["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out, result = run(["--workload", w, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"])
            check(code == 0 and result and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  "%s trace=%d: correct, exit 0" % (w, trace))
            want = units(section)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s trace=%d: every %s metric with its unit"
                  % (w, trace, section))
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  "%s trace=%d: numeric values" % (w, trace))
            if trace == 0:
                for name in REPORT_NAMES[w] + COMMON_REPORT:
                    check(any(line.split()[:1] == [name] and
                              len(line.split()) == 3
                              for line in out.splitlines()),
                          "%s: report prints %s with a unit" % (w, name))
            else:
                check("tracing overhead:" in out and "span self time" in out,
                      "%s: self-time table and tracing overhead" % w)


def failpoint_run():
    code, out, result = run(["--workload", "batch_async", "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--smoke",
                             "--faults", "batch.op.fail=rank1:0.01"])
    rate = [l.split()[1] for l in out.splitlines()
            if l.split()[:1] == ["error_rate"]]
    check(code != 0, "batch.op.fail armed: exit code %d" % code)
    check(result is not None and not result["correct"] and
          result["failed"] > 0, "batch.op.fail armed: failed results counted")
    check(rate and float(rate[0]) > 0, "batch.op.fail armed: error_rate > 0")


def bare_copy_run():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.time()
    code, out, result = run(["--workload", "hot_sync", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=bare,
                            timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None and time.time() - t0 < 180,
          "bare copy: exit %d without a result" % code)


def seed_runs():
    b = bench()
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    for w in (x["name"] for x in b["workloads"]):
        medians = []
        for seed in (101, 202):
            runs = []
            for _ in range(3):
                code, _, result = run(["--workload", w, "--seed", str(seed),
                                       "--seconds", "3", "--trace", "0"])
                check(code == 0 and result["correct"],
                      "%s seed %d: correct" % (w, seed))
                runs.append(result["metrics"])
            medians.append({n: statistics.median(r[n]["value"] for r in runs)
                            for n in bounds})
        for n, bound in bounds.items():
            a, c = medians[0][n], medians[1][n]
            rel = abs(a - c) / max(abs(a), abs(c), 1e-12)
            check(rel <= bound, "%s %s: seeds 101/202 differ by %.1f%% "
                  "(bound %.0f%%)" % (w, n, 100 * rel, 100 * bound))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--skip-seeds", action="store_true",
                   help="skip the two-seed comparison (the slow part)")
    args = p.parse_args()
    smoke_runs()
    failpoint_run()
    bare_copy_run()
    if not args.skip_seeds:
        seed_runs()
    print("all self-tests passed")


if __name__ == "__main__":
    main()
