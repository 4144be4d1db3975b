#!/usr/bin/env python3
"""Paired runs of the repository benchmark on two checkouts.

    perfbench_ab.py --base DIR --change DIR --workload W \\
        [--seeds 1,2,3] [--seconds 20] [--trace 0|1]
    perfbench_ab.py --selftest

Runs `python3 perfbench/run.py` in each checkout once per seed,
alternating which side goes first from one seed to the next, each
checkout building into its own `<DIR>/.bench_build`. A seed may be
listed more than once to get more pairs. Prints, for every metric of
the result line, each side's median and min-max and the number of pairs
the change won (by the metric's `better` direction in BENCHMARK.json),
then names every simulated metric whose value differs between the two
sides on some seed. Simulated metrics repeat exactly for one seed
(except on `serve_mt`, whose workers are real threads), so such a
difference is a behaviour change, not noise.

Exits 1 if a run fails, prints no result line, or reports
`correct: false`; 2 on bad arguments. `--selftest` checks the summary
on canned rows and builds nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Metrics measured on the host clock or in host memory, besides the
# host times and rates named "*_s" and the "*.self_frac" shares; every
# other metric is a count or a simulated quantity that repeats per seed.
HOST_METRICS = {"peak_rss_mb", "sim.zipf_ns_per_draw",
                "obs.trace_overhead_frac"}


def is_host_metric(name):
    return (name in HOST_METRICS or name.endswith("_s")
            or name.endswith(".self_frac"))


def load_directions(checkout):
    """Metric name -> "lower" or "higher", from the checkout's spec."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_side(checkout, workload, seed, seconds, trace):
    """One benchmark run in @p checkout; its result line, or an error."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(checkout, ".bench_build")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", trace]
    done = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        return None, "exit %d, %s" % (
            done.returncode,
            "result line present" if result else "no result line")
    if not result.get("correct", False):
        return None, "correct: false (%s of %s failed)" % (
            result.get("failed"), result.get("attempted"))
    return result, None


def value(result, name):
    """A metric's value in a result line, or None when it is absent."""
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def fmt(number):
    return "%.4g" % number


def summarize(pairs, directions):
    """Summary lines and flagged metric names for a list of pairs.

    @p pairs is a list of (seed, base_result, change_result), each
    result a parsed result line with a "metrics" dict.
    """
    names = sorted(set().union(*(set(b["metrics"]) | set(c["metrics"])
                                 for _, b, c in pairs)))
    lines = ["%-32s %34s %34s %6s" % ("metric", "base median [min-max]",
                                      "change median [min-max]", "wins")]
    flagged = []
    for name in names:
        base = [value(b, name) for _, b, _ in pairs]
        change = [value(c, name) for _, _, c in pairs]
        if None in base or None in change:
            lines.append("%-32s missing on some run" % name)
            flagged.append(name)
            continue
        better = directions.get(name)
        wins = "-"
        if better in ("lower", "higher"):
            sign = 1 if better == "lower" else -1
            wins = "%d/%d" % (sum(sign * (c - b) < 0
                                  for b, c in zip(base, change)), len(pairs))
        cells = []
        for side in (base, change):
            cells.append("%s [%s-%s]" % (fmt(statistics.median(side)),
                                         fmt(min(side)), fmt(max(side))))
        lines.append("%-32s %34s %34s %6s" % (name, cells[0], cells[1],
                                              wins))
        if not is_host_metric(name) and base != change:
            flagged.append(name)
    return lines, flagged


def selftest():
    """Check summarize() on canned rows; builds and runs nothing."""
    def row(setup, cycles, rss=100.0):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"setup_s": {"value": setup, "unit": "s"},
                            "sim_cycles_per_op": {"value": cycles,
                                                  "unit": "cycles"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    directions = {"setup_s": "lower", "sim_cycles_per_op": "lower",
                  "peak_rss_mb": "lower"}
    pairs = [(1, row(0.8, 10.0), row(0.4, 10.0)),
             (2, row(0.6, 12.0), row(0.5, 12.0)),
             (3, row(0.7, 11.0), row(0.9, 11.5, rss=99.0))]
    lines, flagged = summarize(pairs, directions)
    by_name = {line.split()[0]: line for line in lines[1:]}
    checks = [
        ("0.7 [0.6-0.8]" in by_name["setup_s"], "base setup_s summary"),
        ("0.5 [0.4-0.9]" in by_name["setup_s"], "change setup_s summary"),
        (by_name["setup_s"].endswith("2/3"), "setup_s wins"),
        (by_name["peak_rss_mb"].endswith("1/3"), "rss wins"),
        (flagged == ["sim_cycles_per_op"], "flagged %r" % flagged),
        (is_host_metric("workloads.fill_s")
         and is_host_metric("bench.self_frac")
         and not is_host_metric("tfm.guards_per_op"), "host metric names"),
    ]
    _, flagged = summarize(pairs[:2], directions)
    checks.append((flagged == [], "identical simulated metrics flagged"))
    missing = [(1, row(0.8, 10.0),
                {"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}})]
    _, flagged = summarize(missing, directions)
    checks.append((flagged == ["peak_rss_mb", "sim_cycles_per_op"],
                   "missing metrics flagged %r" % flagged))
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        print("perfbench_ab selftest: FAILED %s" % what, file=sys.stderr)
    if not failed:
        print("perfbench_ab selftest: OK (%d checks)" % len(checks))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--base")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.base and args.change and args.workload):
        parser.error("--base, --change and --workload are required")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    base = os.path.abspath(args.base)
    change = os.path.abspath(args.change)

    pairs = []
    for i, seed in enumerate(seeds):
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        results = {}
        for side, checkout in order:
            print("perfbench_ab: seed %d %s (%s)" % (seed, side, checkout),
                  file=sys.stderr, flush=True)
            result, error = run_side(checkout, args.workload, seed,
                                     args.seconds, args.trace)
            if error:
                print("perfbench_ab: seed %d %s run failed: %s"
                      % (seed, side, error), file=sys.stderr)
                return 1
            # Echo every result line, so a run's numbers survive a
            # later failure.
            print("perfbench_ab: seed %d %s %s"
                  % (seed, side, json.dumps(result)), file=sys.stderr)
            results[side] = result
        pairs.append((seed, results["base"], results["change"]))

    lines, flagged = summarize(pairs, load_directions(change))
    print("%s, %d pairs (seeds %s), --seconds %g, --trace %s"
          % (args.workload, len(pairs), args.seeds, args.seconds,
             args.trace))
    print("\n".join(lines))
    if flagged:
        print("simulated metrics that differ on some seed: "
              + ", ".join(flagged))
    else:
        print("every simulated metric is identical per seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
