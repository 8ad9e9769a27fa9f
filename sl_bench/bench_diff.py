#!/usr/bin/env python3
"""Compares two sl_bench result sets and gives a verdict per metric.

  python3 sl_bench/bench_diff.py BASE CHANGE [--strict]

BASE and CHANGE are each a result file written by run.py (--out), whose
per-round values are paired round by round, or a directory of such files,
e.g. >= 10 runs made alternating between the two commits, paired in file
name order. For every workload and metric it prints both medians with
quartiles, the change, the bound from BENCHMARK.json (end-to-end metrics
only) and a verdict:

  improved    the change wins >= 9 of 10 pairs (ties count for neither)
              and the medians differ by more than BASE's quartile spread
  unresolved  BASE's own spread is wider than the bound, and not every
              CHANGE value beats every BASE value
  regressed   the CHANGE median is worse than BASE's by more than the bound
  worse       per-layer metrics, which have no bound: the improved rule
              the other way round
  unchanged   otherwise

Per-layer metrics are information. The exit status is 1 only with
--strict and at least one end-to-end regression.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    """Returns {workload: {metric: [values]}}.

    A file contributes a metric's per-round values where it has them, a
    directory one value (the run's pooled value) per file.
    """
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"no result files in {path}")
    out = {}
    for f in files:
        result = json.loads(f.read_text())
        for w, entry in result["workloads"].items():
            slot = out.setdefault(w, {})
            for name, m in {**entry["e2e"], **entry["layers"]}.items():
                one_file = len(files) == 1 and "rounds" in m
                slot.setdefault(name, []).extend(
                    m["rounds"] if one_file else [m["value"]])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, lower_better, bound):
    sign = 1 if lower_better else -1
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    pairs = list(zip(base, change))

    def wins_clearly(way):
        """The pairing rule; way 1 asks whether CHANGE is better, -1 worse."""
        wins = sum(1 for b, c in pairs if way * sign * (b - c) > 0)
        return (pairs and wins >= 0.9 * len(pairs)
                and way * sign * (med_b - med_c) > q3 - q1)

    if wins_clearly(1):
        return "improved"
    if bound is None:
        return "worse" if wins_clearly(-1) else "unchanged"
    beats_all = all(sign * (c - b) < 0 for b in base for c in change)
    if med_b != 0 and (q3 - q1) / abs(med_b) > bound and not beats_all:
        return "unresolved"
    if med_b != 0 and sign * (med_c - med_b) / abs(med_b) > bound:
        return "regressed"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any end-to-end metric regressed")
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)

    fmt = "{:<17} {:<30} {:>26} {:>26} {:>8} {:>6}  {}"
    cell = "{:.4g} [{:.4g}, {:.4g}]"
    regressions = 0
    for title, metrics in (("end-to-end", SPEC["end_to_end"]),
                           ("per-layer (information)", SPEC["per_layer"])):
        print(f"{title}:")
        print(fmt.format("workload", "metric", "base median [q1, q3]",
                         "change median [q1, q3]", "delta", "bound",
                         "verdict"))
        for w in sorted(set(base) & set(change)):
            for m in metrics:
                b, c = base[w].get(m["name"]), change[w].get(m["name"])
                if not b or not c:
                    continue
                bound = m.get("bound")
                v = verdict(b, c, m["better"] == "lower", bound)
                regressions += v == "regressed"
                med_b, med_c = statistics.median(b), statistics.median(c)
                delta = (med_c - med_b) / med_b * 100 if med_b else 0.0
                print(fmt.format(w, m["name"],
                                 cell.format(med_b, *quartiles(b)),
                                 cell.format(med_c, *quartiles(c)),
                                 f"{delta:+.1f}%",
                                 "-" if bound is None else f"{bound:.0%}", v))
        print()
    return 1 if args.strict and regressions else 0


if __name__ == "__main__":
    sys.exit(main())
