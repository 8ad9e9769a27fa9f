#!/usr/bin/env python3
"""Builds sl_bench, runs its workloads, checks every answer, prints metrics.

Run from the root of a checkout:

  python3 sl_bench/run.py                     all five workloads, 8 rounds
  python3 sl_bench/run.py --trace             plus one traced process each
  python3 sl_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 sl_bench/run.py --smoke             verifier self-test + smoke run

A round starts one fresh sl_bench process per workload (rotated order when
several run), which sets up, measures a 2.5 s window, and reports raw
samples. The first round of every workload also verifies the answers.
Samples are pooled across rounds, and per-round values give each metric's
quartiles. These untraced rounds give the end-to-end metrics and the
latency and throughput metrics; a traced process (seconds / 2 long) gives
the other per-layer metrics. Metric names, units and directions come from
BENCHMARK.json. Every metric is printed as `workload metric value unit`;
with --workload the last stdout line is one JSON object, holding the
end-to-end metrics, or with --trace 1 the per-layer ones. The full result
is written to --out (default .bench_build/out/results.json).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WINDOW_S = 2.5
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures and builds the benchmark; returns False on error."""
    for cmd in (["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs()]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def run_process(workload, seed, window_s, verify, trace):
    cmd = [str(BUILD / "sl_bench"), f"--workload={workload}",
           f"--seed={seed}", f"--window-s={window_s}"]
    if verify:
        cmd.append("--verify")
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", f"--trace-out={OUT / (workload + '.trace.json')}"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: sl_bench did not finish in {PROCESS_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(done.stderr[-4000:])
        log(f"{workload}: sl_bench exited with {done.returncode}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def round_values(procs):
    """Metrics of the untraced rounds `procs`, samples pooled."""
    query = [v for p in procs for v in p["query_ms"]]
    writes = [v for p in procs for v in p["write_ms"]]
    sim = [v for p in procs for v in p["sim_ms"]]
    done = sum(p["attempted"] - p["failed"] for p in procs)
    window = sum(p["window_s"] for p in procs)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "query_ms_p50": percentile(query, 50),
        "query_ms_p95": percentile(query, 95),
        "sim_ms_p50": percentile(sim, 50),
        "ops_per_s": done / window if window > 0 else 0.0,
        "write_ms_p50": percentile(writes, 50),
        "write_ms_p95": percentile(writes, 95),
    }


def traced_values(proc):
    """Per-layer metrics of one traced process."""
    values = dict(proc["layers"])
    values["serve.hit_rate"] = proc["hits"] / max(1, proc["reads"])
    values["serve.delta_hit_frac"] = proc["delta_hits"] / max(1, proc["hits"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host_info():
    avx2 = False
    try:
        avx2 = " avx2" in Path("/proc/cpuinfo").read_text()
    except OSError:
        pass
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": os.cpu_count(), "avx2": avx2, "compiler": version,
            "build_type": "Release", "machine": platform.machine(),
            "git_commit": commit or "unknown"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload, split into "
                             f"{WINDOW_S} s rounds (default 15 for one "
                             "workload, 20 for all)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    if not build():
        return 1
    if args.smoke:
        return subprocess.run(["ctest", "--test-dir", str(BUILD),
                               "--output-on-failure"]).returncode

    workloads = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds or (15 if args.workload else 20)
    rounds = max(1, round(seconds / WINDOW_S))
    window = seconds / rounds

    procs = {w: [] for w in workloads}
    traced = {}
    ok = True
    for r in range(rounds):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            proc = run_process(w, args.seed, window, r == 0, False)
            ok &= proc is not None
            if proc is not None:
                procs[w].append(proc)
    if args.trace:
        for w in workloads:
            proc = run_process(w, args.seed, seconds / 2, False, True)
            ok &= proc is not None
            if proc is not None:
                traced[w] = proc

    any_proc = next((p for ps in procs.values() for p in ps), {})
    result = {
        "config": {"seed": args.seed, "rounds": rounds, "window_s": window,
                   "executors": any_proc.get("executors"),
                   "workloads": workloads, "trace": bool(args.trace)},
        "host": host_info(),
        "workloads": {},
    }
    for w in workloads:
        entry = {"e2e": {}, "layers": {}}
        pooled = round_values(procs[w]) if procs[w] else {}
        per_round = [round_values([p]) for p in procs[w]]
        layers = traced_values(traced[w]) if w in traced else None
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            name = m["name"]
            if name in pooled:
                series = [r[name] for r in per_round]
                q1, q3 = quartiles(series)
                item = {"value": pooled[name], "q1": q1, "q3": q3,
                        "rounds": series}
                note = f" (rounds q1 {q1:.6g} q3 {q3:.6g})"
            elif layers is not None:
                item, note = {"value": layers.get(name, 0.0)}, ""
            else:
                continue
            item.update(unit=m["unit"], better=m["better"])
            if "bound" in m:
                item["bound"] = m["bound"]
            entry["e2e" if "bound" in m else "layers"][name] = item
            print(f"{w} {name} {item['value']:.6g} {m['unit']}{note}")
        all_procs = procs[w] + ([traced[w]] if w in traced else [])
        attempted = sum(p["attempted"] for p in all_procs)
        failed = sum(p["failed"] for p in all_procs)
        entry["attempted"], entry["failed"] = attempted, failed
        print(f"{w} fail_frac {failed / max(1, attempted):.6g} ratio "
              f"({failed} of {attempted})")
        result["workloads"][w] = entry

    out = args.out or OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    log(f"results written to {out}")
    if not ok:
        log("a workload process failed or returned a wrong answer")
    if args.workload:
        entry = result["workloads"][args.workload]
        section = entry["layers" if args.trace else "e2e"]
        print(json.dumps({
            "correct": ok,
            "attempted": max(1, entry["attempted"]),
            "failed": entry["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in section.items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
