#!/usr/bin/env python3
"""End-to-end benchmark of the qmg multigrid library.

Builds perfbench/ (which builds the library from the repository's sources)
into the build directory, runs one workload in its own process, checks the
result against BENCHMARK.json and prints it as the last line of standard
output:

    python3 perfbench/run.py --workload propagator --seed 1 --seconds 40 --trace 0

With --trace 0 the metrics are BENCHMARK.json's end-to-end set, with
--trace 1 its per-layer set; a traced run also writes a Chrome trace-event
file and the tune cache it ended with into the build directory.  Exits
non-zero, without a result line, when the sources are missing, the build
fails or the workload crashes, and non-zero after the result line when the
correctness gate missed.

Two more modes, run from the repository root:

    python3 perfbench/run.py --smoke        # every workload once on a tiny
                                            # lattice, both modes: schema +
                                            # correctness gate, in seconds
    python3 perfbench/run.py --reference    # 4- and 1-thread rows and the
                                            # solver ratios -> perfbench/reference.json

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["propagator", "sequential", "stream", "service"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds qmg_perfbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: the library sources (CMakeLists.txt, src/) are missing")
        sys.exit(2)
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out / "qmg_perfbench"


def provenance():
    """The commit when the tree is a git checkout, plus a digest of the
    library sources so a plain copy of the tree is identified too."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    commit = "none"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "%s+src-%s" % (commit, h.hexdigest()[:12])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, threads=4,
                 smoke=False, timeout=RUN_TIMEOUT_S, commit="none"):
    """Runs one workload; returns (result dict, the other stdout lines, return
    code).  The result is None when the run produced none."""
    tag = "%s_s%d_t%d%s" % (workload, seed, threads, "_smoke" if smoke else "")
    bdir = build_dir()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads), "--smoke", "1" if smoke else "0",
           "--commit", commit]
    trace_file = bdir / ("trace_%s.json" % tag)
    cmd += ["--tune-out", str(bdir / ("tune_cache_%s.txt" % tag))]
    if trace:
        cmd += ["--trace-out", str(trace_file)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, timeout))
        return None, [], 124
    lines = res.stdout.strip().splitlines()
    result = None
    if res.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    if result is not None and trace:
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
            if not events:
                raise ValueError("no spans")
        except (OSError, ValueError, KeyError) as exc:
            log("perfbench: invalid trace file %s: %s" % (trace_file, exc))
            result = None
    return result, lines, res.returncode


def narrow(result, trace):
    """Keeps exactly the metrics BENCHMARK.json declares for the mode;
    returns (narrowed result, problems)."""
    want = declared_metrics(trace)
    got = result.get("metrics", {})
    problems = []
    metrics = {}
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append("missing metric " + name)
            continue
        if m.get("unit") != unit:
            problems.append("%s: unit %s, declared %s" % (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: value %r is not a finite number" % (name, v))
        metrics[name] = {"value": v, "unit": unit}
    out = {"correct": bool(result.get("correct")) and not problems,
           "attempted": int(result.get("attempted", 0)),
           "failed": int(result.get("failed", 0)),
           "metrics": metrics}
    if out["attempted"] < 1:
        problems.append("nothing attempted")
        out["correct"] = False
    return out, problems


def cmd_run(args):
    binary = build()
    result, lines, code = run_workload(binary, args.workload, args.seed,
                                       args.seconds, args.trace,
                                       threads=args.threads,
                                       commit=provenance())
    if result is None:
        log("perfbench: %s produced no result (exit %d)" % (args.workload, code))
        return code or 3
    out, problems = narrow(result, args.trace)
    for p in problems:
        log("perfbench: " + p)
    for line in lines:
        print(line)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] and code == 0 else 1


def cmd_smoke(_args):
    binary = build()
    failures = 0
    for w in WORKLOADS:
        for trace in (False, True):
            result, _, code = run_workload(binary, w, 1, 1, trace, smoke=True,
                                           commit=provenance())
            problems = ["no result (exit %d)" % code] if result is None else []
            if result is not None:
                out, problems = narrow(result, trace)
                if not out["correct"]:
                    problems.append("correctness gate: %d of %d failed"
                                    % (out["failed"], out["attempted"]))
            status = "FAIL" if problems else "ok"
            failures += bool(problems)
            print("smoke %-10s trace=%d  %s %s" % (w, trace, status,
                                                   "; ".join(problems)),
                  flush=True)
    print("smoke: %s" % ("FAILED" if failures else "all passed"))
    return 1 if failures else 0


def cmd_reference(args):
    """Reference rows, recorded once and not gated: every workload at 4 and
    at 1 thread, plus the solver ratios they imply."""
    binary = build()
    commit = provenance()
    rows = {}
    env = {}
    for threads in (4, 1):
        for w in WORKLOADS:
            log("reference: %s at %d thread(s)" % (w, threads))
            result, lines, code = run_workload(binary, w, args.seed,
                                               args.seconds, False,
                                               threads=threads, timeout=900,
                                               commit=commit)
            if result is None or not result.get("correct"):
                log("reference: %s at %d thread(s) failed (exit %d)"
                    % (w, threads, code))
                return 1
            out, _ = narrow(result, False)
            rows.setdefault(w, {})["threads_%d" % threads] = {
                k: v["value"] for k, v in out["metrics"].items()}
            for line in lines:
                if line.startswith("env: "):
                    env = json.loads(line[5:])

    def metric(w, threads, name):
        return rows[w]["threads_%d" % threads][name]

    ratios = {}
    for w in WORKLOADS:
        t1, t4 = metric(w, 1, "tts_s"), metric(w, 4, "tts_s")
        ratios[w] = {"speedup_4_over_1": t1 / t4,
                     "parallel_efficiency_4": t1 / (4 * t4)}
    comparisons = {}
    for threads in (4, 1):
        comparisons["threads_%d" % threads] = {
            "mg_over_bicgstab_per_rhs_sequential":
                metric("sequential", threads, "solve_s_per_rhs")
                / metric("sequential", threads, "bicgstab_s_per_rhs"),
            "block_over_single_per_rhs":
                metric("propagator", threads, "solve_s_per_rhs")
                / metric("sequential", threads, "solve_s_per_rhs"),
        }
    env.pop("threads", None)
    env.pop("workload", None)
    ref = {
        "note": "Reference rows, not gated: one untraced run per workload "
                "and thread count (seed %d, %d s). block_over_single > 1 "
                "means the 12-rhs block MG solve costs more per rhs than "
                "12 single-rhs MG solves." % (args.seed, args.seconds),
        "env": env,
        "rows": rows,
        "thread_scaling": ratios,
        "solver_ratios": comparisons,
    }
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(comparisons))
    print("wrote %s" % path.relative_to(ROOT))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return cmd_smoke(args)
    if args.reference:
        return cmd_reference(args)
    if not args.workload:
        ap.error("--workload is required")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
