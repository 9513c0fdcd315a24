#!/usr/bin/env python3
"""The repository benchmark: one command, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is report-cold or report-warm (the workloads BENCHMARK.json lists),
sweep-wide or run-live (replay-only and interpreter-only workloads, run by
hand), or "all" to run the four in turn. The script builds urcm_report and
the in-process benchmark program urcm_perfbench from the checkout's sources
into .bench_build/, refuses a build tree that was not compiled with
optimisation, runs the workload, and checks every output.

--trace 0 measures the end-to-end metrics untraced: setup_s, wall_s, cpu_s
and peak_rss_mb, each with its sample count, plus the error rate.
--trace 1 is the separate traced run that reports the per-layer metrics, the
tracing overhead and the critical path.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md for the workloads,
the metrics and which layer should move which end-to-end number.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")

WORKLOADS = ["report-cold", "report-warm", "sweep-wide", "run-live"]

# SHA-256 of urcm_report's default output. The report is deterministic, so
# every run, cold or warm, must print exactly these bytes. A change that
# alters the report on purpose updates this digest.
REPORT_DIGEST = "b6756e7521952ed861a43b61ab8c0936822750d95fe2d2d9526ccb9d43ed6ac2"

# Set-up repetitions per run; setup_s is their median.
SETUPS = {"report-cold": 2, "report-warm": 2, "sweep-wide": 15, "run-live": 9}
MIN_SAMPLES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Units of the per-layer metrics the traced run reports.
LAYER_UNITS = {
    "lang.frontend_us": "us", "irgen.us": "us", "irgen.ir_insts": "count",
    "pass.promote_us": "us", "pass.regalloc_us": "us", "pass.unified_us": "us",
    "pass.codegen_us": "us", "pass.verify_us": "us",
    "regalloc.spills": "count", "codegen.minsts": "count",
    "driver.compile_ms": "ms",
    "sim.predecode_us": "us", "sim.interp_ns_per_step": "ns",
    "sim.interp_ns_per_ref": "ns", "sim.steps": "count", "sim.refs": "count",
    "sim.store.encode_ns_per_ref": "ns", "sim.store.bytes_per_ref": "B",
    "sim.store.open_ms": "ms", "sim.store.decode_ns_per_ref": "ns",
    "sim.store.stream_ns_per_ref": "ns",
    "sim.replay.lru_ns_per_ref": "ns", "sim.replay.fifo_ns_per_ref": "ns",
    "sim.replay.random_ns_per_ref": "ns", "sim.replay.tree-plru_ns_per_ref": "ns",
    "sim.replay.srrip_ns_per_ref": "ns",
    "sim.replay.liveness-bypass_ns_per_ref": "ns",
    "sim.replay.min_ns_per_ref": "ns",
    "sim.replay.stackdist_ns_per_ref_point": "ns",
    "sim.replay.multi_ns_per_ref_point": "ns",
    "sim.shard.demux_ns_per_ref": "ns", "sim.shard.speedup": "x",
    "sweep.run_s": "s", "sweep.busy_cpu_s": "s",
    "sweep.parallel_efficiency": "ratio", "sweep.critical_path_s": "s",
    "sweep.experiments": "count",
    "sweep.points": "count", "trace.overhead_s": "s",
}


def fail(message, code=2):
    """Stops without a result line."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, sorted(values)[min(n - 1, int(p / 100 * n))]


# --------------------------------------------------------------------------
# Build and provenance
# --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no repository sources next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time: a target added to a CMakeLists.txt is unknown to
    # a build step that only regenerates the tree on the way.
    steps = [["cmake", "-S", HERE, "-B", BUILD],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "urcm_report",
              "urcm_perfbench"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed; see " + os.path.relpath(log_path, ROOT))
    return (os.path.join(BUILD, "urcm", "tools", "urcm_report"),
            os.path.join(BUILD, "urcm_perfbench"))


def optimisation_level(command):
    """The -O level a compile command applies (the last -O flag wins)."""
    level = "0"
    for arg in command.split():
        if arg.startswith("-O"):
            level = arg[2:] or "1"
    return level


def provenance():
    """Build flags as compiled, plus git state and core counts.

    Whether the tree is optimised is decided from the flags every
    translation unit was compiled with (compile_commands.json), not from
    CMakeCache's CMAKE_BUILD_TYPE, which a plain configure leaves empty
    even though the project then builds at -O2 -g.
    """
    path = os.path.join(BUILD, "compile_commands.json")
    try:
        with open(path) as f:
            entries = json.load(f)
    except (OSError, ValueError):
        fail("cannot read " + os.path.relpath(path, ROOT))
    unoptimised = [e["file"] for e in entries
                   if optimisation_level(e.get("command", "")) in ("0", "g")]
    if unoptimised:
        fail("build tree is not optimised (%d translation units at -O0/-Og, "
             "e.g. %s)" % (len(unoptimised), os.path.relpath(unoptimised[0], ROOT)), 3)
    flags = sorted({" ".join(a for a in e.get("command", "").split()
                             if a.startswith(("-O", "-g", "-D", "-f", "-m", "-std")))
                    for e in entries})
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "pool_width": os.cpu_count() or 1,
        "build_flags": flags,
    }


def git_sha():
    """HEAD's short sha, with -dirty when tracked sources differ from HEAD.

    Untracked files never count, stale stat information is refreshed first,
    and the benchmark's own outputs are ignored (.gitignore keeps them
    untracked). A checkout without git metadata reports "unknown".
    """
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"

    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return "unknown"
    git("update-index", "-q", "--refresh")
    dirty = git("diff", "--quiet", "HEAD", "--").returncode != 0
    return head.stdout.strip() + ("-dirty" if dirty else "")


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.samples = {name: [] for name in END_TO_END_UNITS}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.notes = []
        self.layers = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def run_child(cmd, stdout_path):
    """Runs cmd to completion; returns (code, wall s, cpu s, peak MB, stderr)."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, stderr)


def store_snapshot(store):
    snap = {}
    for name in sorted(os.listdir(store)):
        st = os.stat(os.path.join(store, name))
        snap[name] = (st.st_size, st.st_mtime_ns)
    return snap


def report_workload(name, report_bin, seconds, res):
    """urcm_report as a user runs it: one process per iteration."""
    run_dir = os.path.join(RUNS, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out = os.path.join(run_dir, "report.md")
    store = os.path.join(run_dir, "store")
    cmd = [report_bin] + (["--trace-store=" + store] if name == "report-warm" else [])

    def one_run(what):
        code, wall, cpu, rss, stderr = run_child(cmd, out)
        with open(out, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        ok = code == 0 and digest == REPORT_DIGEST and not stderr
        res.check(ok, "%s: %s exited %d, digest %s, stderr %r" % (
            name, what, code, digest[:12], stderr[:200]))
        return wall, cpu, rss

    # Set-up: a warm-up run (cold), or a store-populating run from an empty
    # store (warm), repeated; its cost is setup_s.
    for _ in range(SETUPS[name]):
        shutil.rmtree(store, ignore_errors=True)
        start = time.perf_counter()
        one_run("set-up run")
        res.samples["setup_s"].append(time.perf_counter() - start)
    snapshot = None
    if name == "report-warm":
        # Write the store's dirty pages back now: left to the kernel, the
        # writeback lands inside the timed iterations.
        for entry in os.scandir(store):
            fd = os.open(entry.path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        snapshot = store_snapshot(store)

    # An iteration starts only if one of median length still ends inside
    # the window, so a run measures for `seconds` and does not overshoot.
    start = time.perf_counter()
    walls = res.samples["wall_s"]
    while (len(walls) < MIN_SAMPLES
           or time.perf_counter() - start + median(walls) <= seconds):
        wall, cpu, rss = one_run("iteration")
        res.samples["wall_s"].append(wall)
        res.samples["cpu_s"].append(cpu)
        res.samples["peak_rss_mb"].append(rss)
        if snapshot is not None:
            # A fallback to live simulation rewrites (self-heals) files.
            res.check(store_snapshot(store) == snapshot,
                      name + ": trace store changed during a warm run")
    shutil.rmtree(store, ignore_errors=True)


def inproc_workload(name, perfbench_bin, seed, seconds, res):
    """sweep-wide and run-live: timed inside one urcm_perfbench process."""
    mode = "sweep" if name == "sweep-wide" else "live"
    run_dir = os.path.join(RUNS, name)
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, "timed.json")
    code, _, _, _, stderr = run_child(
        [perfbench_bin, mode, "--seed", str(seed), "--seconds", str(seconds),
         "--setups", str(SETUPS[name])], out)
    data = read_result_json(out, name, code, stderr, res)
    if data is None:
        return
    res.samples["setup_s"] = data["setup_s"]
    res.samples["wall_s"] = data["wall_s"]
    res.samples["cpu_s"] = data["cpu_s"]
    res.samples["peak_rss_mb"] = [data["peak_rss_mb"]]
    res.notes.append("draws (seed %d): %s" % (seed, "; ".join(data["draws"])))


def read_result_json(path, name, code, stderr, res):
    try:
        with open(path) as f:
            data = json.loads(f.read().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        res.check(False, "%s: urcm_perfbench exited %d without a result: %s" % (
            name, code, stderr[:300]))
        return None
    res.check(code == 0, "%s: urcm_perfbench exited %d" % (name, code))
    res.attempted += int(data["attempted"])
    res.failed += int(data["failed"])
    res.errors.extend(data["errors"][:20])
    return data


def traced_workload(name, perfbench_bin, seed, res):
    run_dir = os.path.join(RUNS, name)
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, "layers.json")
    code, _, _, _, stderr = run_child(
        [perfbench_bin, "layers", "--workload", name, "--seed", str(seed),
         "--run-dir", run_dir], out)
    data = read_result_json(out, name, code, stderr, res)
    if data is None:
        return
    res.layers = data["metrics"]
    res.notes.append("tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s" % (
        data["traced_s"], data["untraced_s"], data["traced_s"] - data["untraced_s"]))
    units = sorted(data["critical_path"], key=lambda u: -u[1])
    if units:
        res.notes.append(
            "critical path: %d experiments run alone, longest %s %.4f s; "
            "parallel efficiency %.3f at pool width %d" % (
                len(units), units[0][0], units[0][1],
                data["metrics"]["sweep.parallel_efficiency"], data["pool_width"]))
        res.notes.append("  slowest units: " + ", ".join(
            "%s %.3f s" % (k, v) for k, v in units[:5]))
    res.notes.append("span self time (count, total s, self s); all spans in " +
                     os.path.relpath(data["spans_file"], ROOT))
    for span, (count, total, self_s) in sorted(data["spans"].items(),
                                               key=lambda kv: -kv[1][1]):
        res.notes.append("  %-28s %6d %10.4f %10.4f" % (span, count, total, self_s))


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------

def summarise(name, trace, res):
    """Prints the human-readable table and returns the metrics object."""
    print("== %s (%s) ==" % (name, "traced" if trace else "untraced"))
    for note in res.notes:
        print(note)
    metrics = {}
    if trace:
        for key in sorted(LAYER_UNITS):
            if key in res.layers:
                value = float(res.layers[key])
                metrics[key] = {"value": value, "unit": LAYER_UNITS[key]}
                print("  %-40s %14.6g %s" % (key, value, LAYER_UNITS[key]))
            else:
                res.check(False, "%s: traced run did not report %s" % (name, key))
    else:
        for key, unit in END_TO_END_UNITS.items():
            values = res.samples[key]
            if not values:
                continue
            value = median(values)
            metrics[key] = {"value": value, "unit": unit}
            q1, q3 = quartiles(values)
            line = "  %-12s %12.6f %-3s median of n=%d  (q1 %.6f, q3 %.6f)" % (
                key, value, unit, len(values), q1, q3)
            hp = high_percentile(values)
            if hp:
                line += "  p%d %.6f" % hp
            print(line)
    rate = res.failed / res.attempted if res.attempted else 1.0
    print("  %-12s %12.6f     failed %d of %d operations" % (
        "error_rate", rate, res.failed, res.attempted))
    for error in res.errors:
        print("  error: " + error)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    report_bin, perfbench_bin = build()
    prov = provenance()
    print("provenance: git %s, nproc %d, pool width %d, flags %s" % (
        prov["git_sha"], prov["nproc"], prov["pool_width"],
        " | ".join(prov["build_flags"])))
    os.makedirs(RUNS, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        res = Result()
        if args.trace:
            traced_workload(name, perfbench_bin, args.seed, res)
        elif name.startswith("report-"):
            report_workload(name, report_bin, args.seconds, res)
        else:
            inproc_workload(name, perfbench_bin, args.seed, args.seconds, res)
        m = summarise(name, args.trace, res)
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({name + "/" + k: v for k, v in m.items()})
        attempted += res.attempted
        failed += res.failed

    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
