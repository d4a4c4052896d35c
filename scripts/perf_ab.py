#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between two revisions.

    scripts/perf_ab.py BASE [HEAD] [--pairs 10] [--seconds 20] [--seed 1]
                       [--workload NAME ...] [--trace 0|1] [--json FILE]
    scripts/perf_ab.py --selftest

BASE and HEAD are git revisions; HEAD defaults to the working tree.  Each
revision is exported with `git archive` into .bench_build/ab/<sha>/ and
runs its own perfbench/run.py there, which builds that tree's benchmark on
first use.  For every workload (default: all of BENCHMARK.json) the two
sides run in --pairs alternating pairs, and the side that runs first flips
from one pair to the next, so drift of the host does not favour one side.

The exit status is 1 when any run is incorrect or when the two sides'
simulated outputs differ (the `sim:` line: cycles, kernel activations and
response digest), and 0 otherwise.  A slower metric does not fail the run:
the BENCHMARK.json bounds are the gate, this table is the evidence.

For each metric of BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1) the table gives each side's median and quartiles, the
ratio of the HEAD median to the BASE median, the pairs HEAD wins in the
metric's `better` direction, and the spread of BASE as IQR/median.  The
verdict follows the benchmark's rule for a claimed gain: a metric is
`resolved` when HEAD wins at least 90% of at least 10 pairs and |ratio - 1|
exceeds that spread, `regressed` when BASE does, and `noise` otherwise;
with fewer than 10 pairs the verdict is `-`.  A metric that moves with
changes it does not measure (trace.overhead, comparator.finish_s) always
reads `-`, marked `^` with a footnote that names the metric to read
instead.  --json FILE writes
the table.

With --trace 1 the table also compares the layers perfbench prints in its
`per layer` block but leaves out of its result line and of BENCHMARK.json,
because some workloads lack them (board.advance_s, ref.advance_s): they
are read from each run's printed rows, compared lower-is-better, marked
`*` as print-only, and left out where both sides read 0.

With --trace 1 the table is followed by every per-layer metric of unit
`count` whose values differ between the two sides, or `counts: identical`.
Counts are deterministic per seed, so a difference there is a change in
what was simulated or measured, not noise; it does not change the exit
status.

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
WIN_SHARE = 0.9
MIN_PAIRS_FOR_VERDICT = 10
SIM_KEYS = ("cycles", "activations", "digest")
RUN_TIMEOUT_S = 3600  # the first run of a side also builds its tree
# Layers perfbench prints under `per layer` but keeps out of its result
# line (a workload without the layer reads 0 there).
PRINT_ONLY = (
    {"name": "board.advance_s", "unit": "s", "better": "lower",
     "print_only": True},
    {"name": "ref.advance_s", "unit": "s", "better": "lower",
     "print_only": True},
)


# Metrics that get no verdict, with the footnote saying why.
NO_VERDICT = {
    "trace.overhead": "untraced over traced clk_per_s minus one; the tracing "
                      "cost per span is fixed, so any change that shortens "
                      "the traced work per span raises it: read "
                      "trace.session_wall_s instead",
    "comparator.finish_s": "times one SessionComparator::finish() call, "
                           "1.5-16 us per round, close to the cost of its "
                           "own timer, so it moves with code layout: read "
                           "comparator.compared and trace.session_wall_s "
                           "instead",
}


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


# --- arithmetic ---------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) of `values`, by linear interpolation."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def spread(values):
    """IQR/median of `values`."""
    q1, med, q3 = quartiles(values)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def compare(base, head, better):
    """One table row from paired samples (base[i] and head[i] ran together)."""
    assert len(base) == len(head) and base, "need paired samples"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    base_q1, base_med, base_q3 = quartiles(base)
    head_q1, head_med, head_q3 = quartiles(head)
    ratio = head_med / base_med if base_med else None
    noise = spread(base)
    moved = base_med != 0 and abs(ratio - 1) > noise
    need = WIN_SHARE * len(base)
    if len(base) < MIN_PAIRS_FOR_VERDICT:
        verdict = "-"
    elif moved and wins >= need:
        verdict = "resolved"
    elif moved and losses >= need:
        verdict = "regressed"
    else:
        verdict = "noise"
    return {"base_median": base_med, "base_q1": base_q1, "base_q3": base_q3,
            "head_median": head_med, "head_q1": head_q1, "head_q3": head_q3,
            "ratio": ratio, "wins": wins, "pairs": len(base),
            "base_iqr_over_median": noise, "verdict": verdict}


def metric_row(metric, base, head):
    """compare() for one metric of BENCHMARK.json (or PRINT_ONLY)."""
    row = compare(base, head, metric["better"])
    if metric["name"] in NO_VERDICT:
        row["verdict"] = "-"
    row.update({"metric": metric["name"], "unit": metric["unit"],
                "better": metric["better"],
                "print_only": metric.get("print_only", False)})
    return row


def sim_mismatch(sims):
    """Description of the first run whose simulated outputs differ from the
    first run's, or None when every run agrees."""
    ref = {k: sims[0][1].get(k) for k in SIM_KEYS}
    for label, sim in sims[1:]:
        got = {k: sim.get(k) for k in SIM_KEYS}
        if got != ref:
            return f"{label}: {got} != {sims[0][0]}: {ref}"
    return None


def count_diffs(base, head, metrics):
    """[(name, base values, head values)] for every metric of unit `count`
    whose distinct values differ between the two sides' runs."""
    diffs = []
    for m in metrics:
        if m["unit"] != "count":
            continue
        name = m["name"]
        b = sorted({s[name]["value"] for s in base if name in s})
        h = sorted({s[name]["value"] for s in head if name in s})
        if b != h:
            diffs.append((name, b, h))
    return diffs


def format_counts(counts):
    """Lines for {workload: count_diffs(...)}: one per differing count, or
    `counts: identical`."""
    def values(vs):
        return " ".join(f"{v:.15g}" for v in vs) or "-"

    lines = [f"counts differ: {w} {name}: base {values(b)}, head {values(h)}"
             for w, diffs in counts.items() for name, b, h in diffs]
    return lines or ["counts: identical"]


def printed_layers(lines):
    """{name: {"value", "unit"}} for the PRINT_ONLY rows of the `per layer`
    block in perfbench's stdout `lines` (`  name  value  unit`)."""
    wanted = {m["name"] for m in PRINT_ONLY}
    found, in_block = {}, False
    for line in lines:
        if line.startswith("per layer"):
            in_block = True
        elif in_block and not line.startswith("  "):
            break
        elif in_block:
            fields = line.split()
            if len(fields) == 3 and fields[0] in wanted:
                try:
                    found[fields[0]] = {"value": float(fields[1]),
                                        "unit": fields[2]}
                except ValueError:
                    pass
    return found


def pair_order(i):
    """Side that runs first in pair i: BASE in even pairs, HEAD in odd."""
    return ("base", "head") if i % 2 == 0 else ("head", "base")


# --- trees and runs -----------------------------------------------------------

def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev):
    """Exports `rev` into .bench_build/ab/<sha>/ once; returns (sha, tree)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = AB_DIR / sha
    done = tree / ".exported"
    if not done.is_file():
        tree.mkdir(parents=True, exist_ok=True)
        log(f"exporting {rev} ({sha[:12]}) to {tree}")
        proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                stdout=subprocess.PIPE)
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(tree)
        if proc.wait() != 0:
            raise SystemExit(f"perf_ab: git archive {sha} failed")
        done.write_text(sha + "\n")
    return sha, tree


def run_side(tree, workload, args):
    """One perfbench run in `tree`; returns (result dict|None, sim dict)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, {}
    lines = proc.stdout.splitlines()
    sim = {}
    for line in lines:
        if line.startswith("sim: "):
            sim = json.loads(line[len("sim: "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if args.trace and isinstance(result, dict) and isinstance(
            result.get("metrics"), dict):
        for name, value in printed_layers(lines).items():
            result["metrics"].setdefault(name, value)
    return result, sim


def measure(trees, workloads, metrics, args):
    """Runs the pairs; returns (rows, sims, counts, failures), where
    counts maps each workload to its count_diffs."""
    rows, sims, counts, failures = [], {}, {}, []
    for w in workloads:
        samples = {"base": [], "head": []}
        runs = []
        for i in range(args.pairs):
            for side in pair_order(i):
                result, sim = run_side(trees[side], w, args)
                label = f"{w} pair {i + 1} {side}"
                if (not result or result.get("correct") is not True
                        or result.get("failed") != 0):
                    failures.append(f"{label}: incorrect run ({result})")
                    continue
                runs.append((label, sim))
                samples[side].append(result["metrics"])
                log(f"{label}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics if m["name"] in result["metrics"]))
        if runs:
            sims[w] = {k: runs[0][1].get(k) for k in SIM_KEYS}
            bad = sim_mismatch(runs)
            if bad:
                failures.append(f"{w}: simulated outputs differ: {bad}")
        if samples["base"] and samples["head"]:
            counts[w] = count_diffs(samples["base"], samples["head"], metrics)
        if len(samples["base"]) != args.pairs or len(samples["head"]) != args.pairs:
            continue
        for m in metrics:
            name = m["name"]
            if not all(name in s for s in samples["base"] + samples["head"]):
                continue
            base = [s[name]["value"] for s in samples["base"]]
            head = [s[name]["value"] for s in samples["head"]]
            if m.get("print_only") and not any(base + head):
                continue  # a layer this workload does not run
            rows.append({"workload": w, **metric_row(m, base, head)})
    return rows, sims, counts, failures


def print_table(rows):
    """One line per row; each side reads `median [q1, q3]`."""
    def side(r, name):
        return (f"{r[name + '_median']:.6g} "
                f"[{r[name + '_q1']:.6g}, {r[name + '_q3']:.6g}]")

    print(f"{'workload':16s} {'metric':24s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'ratio':>7s} {'wins':>6s} "
          f"{'iqr/med':>8s}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        metric = r["metric"] + ("*" if r.get("print_only") else "")
        metric += "^" if r["metric"] in NO_VERDICT else ""
        print(f"{r['workload']:16s} {metric:24s} {side(r, 'base'):>34s} "
              f"{side(r, 'head'):>34s} {ratio:>7s} "
              f"{r['wins']:>3d}/{r['pairs']:<2d} "
              f"{r['base_iqr_over_median']:8.3f}  {r['verdict']}")
    if any(r.get("print_only") for r in rows):
        print("* print-only: read from perfbench's printed per-layer rows; "
              "not in its result line or BENCHMARK.json")
    for name in sorted({r["metric"] for r in rows} & NO_VERDICT.keys()):
        print(f"^ no verdict for {name}: {NO_VERDICT[name]}")


# --- self-test ----------------------------------------------------------------

def selftest():
    failures = []

    def check(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    def near(what, got, want):
        if abs(got - want) > 1e-9:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    base = [100.0, 102.0, 98.0, 101.0, 99.0]
    near("spread of 98..102", spread(base), 0.02)
    near("spread of one sample", spread([5.0]), 0.0)
    near("spread of [1,2,3,4]", spread([1.0, 2.0, 3.0, 4.0]), 1.5 / 2.5)
    check("quartiles of 98..102", quartiles(base), (99.0, 100.0, 101.0))
    check("quartiles of one sample", quartiles([5.0]), (5.0, 5.0, 5.0))

    # Ten pairs: the base spread is 0.02 again.
    base10 = base * 2
    r = compare(base10, [130.0, 128.0, 131.0, 127.0, 133.0] * 2, "higher")
    near("higher: ratio", r["ratio"], 1.3)
    check("higher: wins", r["wins"], 10)
    check("higher: head quartiles", (r["head_q1"], r["head_q3"]),
          (128.0, 131.0))
    check("higher: base quartiles", (r["base_q1"], r["base_q3"]),
          (99.0, 101.0))
    check("higher: verdict", r["verdict"], "resolved")

    r = compare([2.0, 2.2, 1.8, 2.1, 1.9] * 2,
                [1.5, 1.6, 1.4, 1.5, 1.5] * 2, "lower")
    near("lower: ratio", r["ratio"], 0.75)
    check("lower: verdict", r["verdict"], "resolved")

    r = compare([2.0, 2.2, 1.8, 2.1, 1.9], [1.5, 1.6, 1.4, 1.5, 1.9], "lower")
    check("lower: wins (a tie is no win)", r["wins"], 4)

    faster = [130.0] * 10
    r = compare(base10, faster[:9] + [90.0], "higher")
    check("9 wins in 10 pairs: wins", r["wins"], 9)
    check("9 wins in 10 pairs: verdict", r["verdict"], "resolved")
    r = compare(base10, faster[:8] + [90.0, 90.0], "higher")
    check("8 wins in 10 pairs: wins", r["wins"], 8)
    check("8 wins in 10 pairs: verdict", r["verdict"], "noise")
    r = compare(base, faster[:5], "higher")
    check("5 pairs: wins", r["wins"], 5)
    check("5 pairs: no verdict", r["verdict"], "-")

    # Wins every pair but moves less than the base spread.
    r = compare(base10, [100.5, 102.5, 98.5, 101.5, 99.5] * 2, "higher")
    check("inside the spread: wins", r["wins"], 10)
    check("inside the spread: verdict", r["verdict"], "noise")

    r = compare(base10, [80.0, 81.0, 79.0, 82.0, 78.0] * 2, "higher")
    check("slower everywhere: verdict", r["verdict"], "regressed")

    r = compare([100.0, 100.0], [130.0, 131.0], "higher")
    check("two pairs: wins", r["wins"], 2)
    check("two pairs: no verdict", r["verdict"], "-")

    r = compare([0.0] * 10, [0.0] * 10, "lower")
    check("zero base: no ratio", r["ratio"], None)
    check("zero base: verdict", r["verdict"], "noise")

    r = compare([22.6] * 10, [22.6] * 10, "lower")
    check("identical samples: wins", r["wins"], 0)
    check("identical samples: verdict", r["verdict"], "noise")

    sims = [("a", {"cycles": 5, "activations": 7, "digest": "ab", "cells": 1}),
            ("b", {"cycles": 5, "activations": 7, "digest": "ab", "cells": 9})]
    check("equal sims", sim_mismatch(sims), None)
    sims.append(("c", {"cycles": 5, "activations": 8, "digest": "ab"}))
    check("differing activations caught", sim_mismatch(sims) is not None, True)

    metrics = [{"name": "rtl.transactions", "unit": "count"},
               {"name": "rtl.activations", "unit": "count"},
               {"name": "rtl.advance_s", "unit": "s"}]

    def run(transactions, activations, advance_s):
        return {"rtl.transactions": {"value": transactions},
                "rtl.activations": {"value": activations},
                "rtl.advance_s": {"value": advance_s}}

    base_runs = [run(4010000.0, 7.0, 0.54), run(4010000.0, 7.0, 0.55)]
    check("equal counts, times differ",
          count_diffs(base_runs, [run(4010000.0, 7.0, 0.49)] * 2, metrics), [])
    diffs = count_diffs(base_runs, [run(4009999.0, 7.0, 0.54)] * 2, metrics)
    check("differing count", diffs, [("rtl.transactions", [4010000.0],
                                      [4009999.0])])
    check("differing count line", format_counts({"gcu_hybrid": diffs}),
          ["counts differ: gcu_hybrid rtl.transactions: base 4010000, "
           "head 4009999"])
    check("count varying on one side",
          count_diffs(base_runs, [run(4010000.0, 7.0, 0.5),
                                  run(4010000.0, 8.0, 0.5)], metrics),
          [("rtl.activations", [7.0], [7.0, 8.0])])
    diffs = count_diffs([{"rtl.activations": {"value": 7.0}}], base_runs[:1],
                        metrics)
    check("count missing on one side", diffs,
          [("rtl.transactions", [], [4010000.0])])
    check("count missing on one side line", format_counts({"w": diffs}),
          ["counts differ: w rtl.transactions: base -, head 4010000"])
    check("identical counts line",
          format_counts({"gcu_hybrid": [], "switch_rtl": []}),
          ["counts: identical"])

    printed = [
        "end-to-end (times scaled to the nominal host):",
        "  board.advance_s                      9.000000 s        ",
        "per layer (traced rounds, per round):",
        "  rtl.advance_s                        0.201000 s        ",
        "  ref.advance_s                        0.013500 s        ",
        "  board.advance_s                      0.184000 s        ",
        "  board.test_cycles                   96.000000 count    ",
        "  layers + residual = 0.5 s of 0.5 s session wall (99.9%)",
        "spans: 10 kept (0 beyond the cap) in s.json",
        "  ref.advance_s                        7.000000 s        ",
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}',
    ]
    check("printed layers", printed_layers(printed),
          {"ref.advance_s": {"value": 0.0135, "unit": "s"},
           "board.advance_s": {"value": 0.184, "unit": "s"}})
    check("printed layers of an untraced run",
          printed_layers([l for l in printed if not l.startswith("per")]),
          {})
    check("printed layers: unparsable value",
          printed_layers(["per layer (traced rounds, per round):",
                          "  board.advance_s  nan? s"]), {})

    # trace.overhead: ratio and wins as for any metric, but no verdict.
    overhead = {"name": "trace.overhead", "unit": "ratio", "better": "lower"}
    r = metric_row(overhead, [0.088] * 10, [0.108] * 10)
    near("trace.overhead: ratio", r["ratio"], 0.108 / 0.088)
    check("trace.overhead: wins", r["wins"], 0)
    check("trace.overhead: verdict", r["verdict"], "-")
    r = metric_row(dict(overhead, name="trace.session_wall_s", unit="s"),
                   [0.088] * 10, [0.108] * 10)
    check("trace.session_wall_s: verdict", r["verdict"], "regressed")
    # comparator.finish_s: a microsecond timer that read `regressed` on an
    # unchanged finish(); ratio and wins still print, the verdict is `-`.
    finish = {"name": "comparator.finish_s", "unit": "s", "better": "lower"}
    r = metric_row(finish, [1.6e-6] * 10, [2.1e-6] * 10)
    near("comparator.finish_s: ratio", r["ratio"], 2.1 / 1.6)
    check("comparator.finish_s: wins", r["wins"], 0)
    check("comparator.finish_s: verdict", r["verdict"], "-")

    check("pair 1 order", pair_order(0), ("base", "head"))
    check("pair 2 order", pair_order(1), ("head", "base"))

    for f in failures:
        log(f"selftest FAIL: {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


# --- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="base revision")
    ap.add_argument("head", nargs="?",
                    help="head revision (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--json", metavar="FILE", help="write the table as JSON")
    ap.add_argument("--selftest", action="store_true",
                    help="check the arithmetic on canned numbers and exit")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base:
        ap.error("BASE is required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            ap.error(f"unknown workload {w!r} (have {', '.join(known)})")
    metrics = (spec["per_layer"] + list(PRINT_ONLY) if args.trace
               else spec["end_to_end"])

    base_sha, base_tree = export(args.base)
    if args.head:
        head_sha, head_tree = export(args.head)
    else:
        head_sha, head_tree = "worktree", ROOT
    log(f"base {base_sha[:12]} vs head {head_sha[:12]}: {args.pairs} pair(s) "
        f"x {args.seconds:g} s, seed {args.seed}, trace {args.trace}")

    rows, sims, counts, failures = measure(
        {"base": base_tree, "head": head_tree}, workloads, metrics, args)
    print_table(rows)
    if args.trace:
        for line in format_counts(counts):
            print(line)
    for w, sim in sims.items():
        print(f"sim {w}: {json.dumps(sim)}")
    for f in failures:
        log(f"FAIL: {f}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "base": base_sha, "head": head_sha, "pairs": args.pairs,
            "seconds": args.seconds, "seed": args.seed, "trace": args.trace,
            "correct": not failures, "failures": failures, "sim": sims,
            "rows": rows}, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
