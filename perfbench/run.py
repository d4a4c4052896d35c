#!/usr/bin/env python3
"""The CASTANET benchmark: one command for every workload.

    python3 perfbench/run.py --workload switch_rtl --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # all four workloads in turn
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record --workload gcu_hybrid --seed 7

Run from the root of a checkout.  The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) into .bench_build/;
later runs only rebuild what changed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a traced
run.  Lines before it give every metric by name with its unit, the latency
percentiles with their sample counts, and the host the numbers come from.

Simulated outputs (cycles, kernel activations, response digest) of the seeds
in perfbench/expected.json are checked against the recorded values; every
seed is checked against the reference model and for run-to-run identity.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "castanet_perfbench"
WORKLOADS = ("switch_rtl", "gcu_hybrid", "switch_coverify", "farm_regression")
# Seed for everyday runs, and the seed held back for checking a claimed gain.
DEFAULT_SEED = 1
HELDOUT_SEED = 7
SMOKE_SCALE = 0.05
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; run from a full checkout")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, 850, stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if code != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def expectations(workload, seed, scale):
    table = json.loads((HERE / "expected.json").read_text())
    key = "smoke" if scale == SMOKE_SCALE else "full"
    return table.get(key, {}).get(workload, {}).get(str(seed))


def host_stamp(build_info):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        code, out = run_group(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if code == 0:
            commit = out.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # The checkout the benchmark runs in need not be a git repository; the
    # digest of the sources identifies the code that was timed either way.
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    stamp = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }
    stamp.update(build_info)
    return stamp


def run_bench(workload, seed, seconds, trace, scale=1.0, expect=None,
              deadline=RUN_TIMEOUT_S):
    """Runs the binary; returns (exit code, stdout lines, result dict|None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", str(scale)]
    if expect:
        cmd += ["--expect-cycles", str(expect["cycles"]),
                "--expect-activations", str(expect["activations"]),
                "--expect-digest", expect["digest"]]
    if trace:
        cmd += ["--spans", str(ROOT / ".bench_build" / f"spans-{workload}.json")]
    try:
        code, out = run_group(cmd, max(10, deadline), stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {deadline:.0f} s")
        return 1, [], None
    lines = out.decode(errors="replace").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, lines, result


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    return {}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics(lines, result, wanted):
    """Names of `wanted` metrics missing from the result or the report."""
    text = "\n".join(lines[:-1])
    missing = []
    for m in wanted:
        got = (result or {}).get("metrics", {}).get(m["name"])
        if got is None or got.get("unit") != m["unit"] or m["name"] not in text:
            missing.append(m["name"])
    return missing


def selftest():
    """Every workload at smoke size, traced and untraced; then a tampered
    digest must trip the correctness gate."""
    if not build():
        return 1
    spec = benchmark_spec()
    failures = []
    for w in WORKLOADS:
        expect = expectations(w, 0, SMOKE_SCALE)
        if expect is None:
            failures.append(f"{w}: no smoke expectation recorded")
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            code, lines, result = run_bench(w, 0, 0.5, trace, SMOKE_SCALE, expect)
            if code != 0 or not result or result.get("correct") is not True:
                failures.append(f"{w} trace={int(trace)}: exit {code}, result {result}")
                continue
            missing = check_metrics(lines, result, wanted)
            if missing:
                failures.append(f"{w} trace={int(trace)}: missing {missing}")
            report = "\n".join(lines)
            for name in ("cell_latency_p50_us", "cell_latency_p99_us", "fail_ratio"):
                if name not in report:
                    failures.append(f"{w}: {name} not printed")
        log(f"selftest {w}: done")
    expect = dict(expectations("switch_rtl", 0, SMOKE_SCALE) or {})
    expect["digest"] = "%016x" % (int(expect.get("digest", "0"), 16) ^ 1)
    if "cycles" in expect:
        code, _, result = run_bench("switch_rtl", 0, 0.5, False, SMOKE_SCALE, expect)
        if code == 0 or not result or result.get("correct") is not False:
            failures.append("a tampered digest did not trip the correctness gate")
    for f in failures:
        log(f"selftest FAIL: {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


def record(workload, seed, scale):
    """Prints the simulated outputs to record in perfbench/expected.json."""
    if not build():
        return 1
    code, lines, result = run_bench(workload, seed, 0.5, False, scale)
    sim = tagged(lines, "sim")
    if code != 0 or not sim:
        log(f"{workload} seed {seed} failed: exit {code}")
        return 1
    print(json.dumps({workload: {str(seed): {k: sim[k] for k in
                                             ("cycles", "activations", "digest")}}}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; seed {HELDOUT_SEED} "
                         "is held out for checking a claimed gain)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--smoke", action="store_true",
                    help="use the self-test's stimulus size")
    args = ap.parse_args()
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.selftest:
        return selftest()
    if args.record:
        if args.workload == "all":
            ap.error("--record needs one --workload")
        return record(args.workload, args.seed, scale)
    if not build():
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes, results, build_info = [], [], {}
    for w in workloads:
        expect = expectations(w, args.seed, scale)
        code, lines, result = run_bench(w, args.seed, args.seconds,
                                        bool(args.trace), scale, expect)
        if result is None or not {"correct", "attempted", "failed", "metrics"} <= result.keys():
            for line in lines:
                print(line)
            log(f"{w}: no result (exit {code})")
            return code or 1
        for line in lines[:-1]:
            print(line)
        print(f"expected values: {'recorded for this seed' if expect else 'none for this seed'}")
        build_info = tagged(lines, "build")
        codes.append(code)
        results.append(result)
    print("host: " + json.dumps(host_stamp(build_info)))
    if len(results) == 1:
        final = results[0]
    else:
        # One result for the whole suite: metrics keyed "<workload>.<metric>".
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
