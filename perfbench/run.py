#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload polybench --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The benchmark program (perfbench/main.ml) is built with dune from the
checkout's sources, then run once. Its last stdout line is a JSON result;
this script checks the metric names and units against BENCHMARK.json,
checks that each workload reports every per-layer metric listed for it
in LAYERS, reports the per-layer metrics of layers the workload does not
run as 0 (the layer did no work), and prints the result as the last
line.

--selftest checks the benchmark itself: each output oracle fires on a
planted wrong expected value, two runs with one seed give identical
exact counts, and a run with a second seed lands within the bounds of
the first. The runs compared against the bounds last run_seconds, the
length the bounds are set for; the others last at most 6 seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a full checkout" % need)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_once(bench, workload, seed, seconds, trace, corrupt=False):
    """Run the program; return (notes, result dict) or exit on error."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        args.append("--corrupt-oracle")
    r = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                       timeout=175, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, r.returncode))
    try:
        res = json.loads(lines[-1])
    except ValueError:
        fail("no JSON result from %s" % workload)
    want = bench["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    units = {m["name"]: m["unit"] for m in want}
    for name, v in got.items():
        if name not in units:
            fail("%s: metric %s is not in BENCHMARK.json" % (workload, name))
        if v["unit"] != units[name]:
            fail("%s: %s has unit %s, BENCHMARK.json says %s"
                 % (workload, name, v["unit"], units[name]))
    # end-to-end: every metric; per-layer: those of the layers this
    # workload runs, the others reported as 0 (the layer did no work)
    need = LAYERS[workload] if trace else list(units)
    missing = [n for n in need if n not in got]
    if missing:
        fail("%s: metrics missing: %s" % (workload, missing))
    extra = [n for n in got if n not in need]
    if extra:
        fail("%s: metrics not listed for this workload: %s" % (workload, extra))
    res["metrics"] = {n: got.get(n, {"value": 0, "unit": units[n]})
                      for n in units}
    return lines[:-1], res


SIM = ["sim_throughput_ops_s", "sim_p50_us", "sim_p99_us"]
SERVE_VNS = ["serve.vns." + c for c in ("transition", "exec", "pager",
                                        "epc_fault", "epc_evict", "crypto",
                                        "queue")]

# Per-layer counts that must repeat exactly for one seed, per workload.
EXACT = {
    "polybench": ["wasm.fuel_per_op", "sgx.epc_faults_per_op",
                  "sgx.epc_evictions_per_op", "sgx.sim_overhead_us_per_op"]
                 + SIM,
    "serve": ["sgx.transitions_per_req", "sgx.epc_faults", "sgx.epc_evictions",
              "serve.req_per_batch", "serve.cross_refaults",
              "serve.queue_depth_hwm", "obs.ledger_events_per_req",
              "ipfs.crypto_events_per_op", "ipfs.crypto_vns_per_op"]
             + SIM + SERVE_VNS,
    "sqlite-pfs": ["sqldb.cache_hit_ratio", "sqldb.page_reads_per_op",
                   "sqldb.page_writes_per_op", "sqldb.journal_writes_per_op",
                   "ipfs.node_hit_ratio", "ipfs.crypto_events_per_op",
                   "ipfs.crypto_vns_per_op", "sgx.epc_faults_per_op"] + SIM,
}

# Every per-layer metric each workload reports: its exact counts and
# its host timings.
LAYERS = {
    "polybench": EXACT["polybench"]
    + ["wasm.decode_us", "wasm.validate_us", "wasm.instantiate_us",
       "wasm.compile_us", "wasm.exec_us", "wasm.exec_alloc_words",
       "wasm.minstr_per_s", "wasm.tier_gain_x", "wasm_native_x",
       "polybench.native_us", "sgx.launch_us", "bench.trace_overhead_pct"],
    "serve": EXACT["serve"]
    + ["serve.host_us_per_req", "serve.generate_us_per_req",
       "serve.sql_us_per_req", "serve.fleet_overhead_us_per_req",
       "sqldb.parse_us", "sqldb.point_us", "sqldb.range_us",
       "crypto.seal_us_per_kib", "bench.trace_overhead_pct"],
    "sqlite-pfs": EXACT["sqlite-pfs"]
    + ["sqldb.parse_us", "sqldb.point_us", "sqldb.update_us",
       "sqldb.range_us", "crypto.seal_us_per_kib",
       "bench.trace_overhead_pct"],
}


def selftest(bench, seconds):
    problems = []
    full = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    for w in names:
        _, r = run_once(bench, w, 1, 1, 0, corrupt=True)
        print("oracle %-10s planted error -> correct=%s failed=%d/%d"
              % (w, r["correct"], r["failed"], r["attempted"]))
        if r["correct"] or r["failed"] < 1:
            problems.append("%s: planted wrong expected value not counted" % w)
    for w in names:
        a = run_once(bench, w, 1, seconds, 1)[1]["metrics"]
        b = run_once(bench, w, 1, seconds, 1)[1]["metrics"]
        diff = [n for n in EXACT[w] if a[n]["value"] != b[n]["value"]]
        e1 = run_once(bench, w, 1, full, 0)[1]["metrics"]
        e2 = run_once(bench, w, 1, full, 0)[1]["metrics"]
        if e1["alloc_words_per_op"]["value"] != e2["alloc_words_per_op"]["value"]:
            diff.append("alloc_words_per_op")
        print("determinism %-10s %d exact counts compared, differing: %s"
              % (w, len(EXACT[w]) + 1, diff or "none"))
        if diff:
            problems.append("%s: same seed, different %s" % (w, diff))
        e3 = run_once(bench, w, 2, full, 0)[1]["metrics"]
        for m in bench["end_to_end"]:
            n, base = m["name"], statistics.median(
                [e1[m["name"]]["value"], e2[m["name"]]["value"]])
            v = e3[n]["value"]
            worse = (v - base) / base if m["better"] == "lower" else (base - v) / base
            status = "ok" if worse <= m["bound"] else "OUT OF BOUND"
            print("second seed %-10s %-20s seed1 %.6g seed2 %.6g %s"
                  % (w, n, base, v, status))
            if worse > m["bound"]:
                problems.append("%s: %s worse on seed 2 by %.1f%%"
                                % (w, n, worse * 100))
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    bench = spec()
    build()
    if a.selftest:
        sys.exit(selftest(bench, min(a.seconds, 6)))
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % a.workload)
    notes, res = run_once(bench, a.workload, a.seed, a.seconds, a.trace)
    for line in notes:
        print(line)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
