#!/usr/bin/env python3
"""One benchmark run of pipemap_server.

    python3 perfbench/run.py --workload paper_hit|dp_cold \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds the server and the benchmark harness into $CARGO_TARGET_DIR (default
.bench_build) with the repository's default RelWithDebInfo flags; later
runs only check the build is current. It refuses to measure a sanitizer or
-O0 build.

The harness spawns the real pipemap_server, times set-up, drives the
workload over loopback, checks every response against an uncached
in-process oracle, and with --trace 1 adds an in-process traced replay for
the per-layer metrics. This script stamps the result with the host,
compiler, effective flags and source identity, writes it to
.bench_results/, prints every end-to-end value by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_NAME = os.path.basename(BENCH_DIR)
# The harness gets --seconds plus HARNESS_MARGIN_S: besides its window it
# computes the oracle's answers (for dp_cold, of what the window sent:
# about as long as the window, twice that on a slow host), times eleven
# server start-ups and, with --trace 1, replays the requests in-process.
HARNESS_MARGIN_S = 130
MAX_SECONDS = 40


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def stop_group(pgid):
    """SIGKILLs whatever is left in process group `pgid`, then waits (at
    most 10 s) until it is gone. Call it after reaping the group leader."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def load_definition(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found in the working directory")
    with open(path) as f:
        return json.load(f)


def build_dir(root):
    """$CARGO_TARGET_DIR when it lies inside the checkout, else .bench_build."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(root, target))
    if os.path.commonpath([path, root]) != root:
        path = os.path.join(root, ".bench_build")
    return os.path.join(path, BENCH_NAME)


def build(root, out):
    source = os.path.join(root, BENCH_NAME)
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "pipemap_server",
         "perfbench_harness"],
        check=True, stdout=log, stderr=log)


def effective_flags(root, out):
    """Compiler and flags as the build ran them, from compile_commands.json."""
    with open(os.path.join(out, "compile_commands.json")) as f:
        commands = json.load(f)
    wanted = {
        os.path.join(root, "tools", "pipemap_server_main.cpp"): "pipemap_server",
        os.path.join(root, "src", "core", "dp_engine.cpp"): "dp_engine",
        os.path.join(BENCH_DIR, "harness.cpp"): "perfbench_harness",
    }
    flags = {}
    compiler = None
    for entry in commands:
        name = wanted.get(os.path.realpath(entry["file"]))
        if name is None:
            continue
        args = entry.get("arguments") or entry["command"].split()
        compiler = compiler or args[0]
        flags[name] = [a for a in args[1:]
                       if a.startswith(("-O", "-g", "-f", "-m", "-DNDEBUG",
                                        "-std"))]
    if len(flags) != len(wanted):
        fail("compile_commands.json lacks the server or harness sources")
    for name, f in flags.items():
        levels = [a for a in f if a.startswith("-O")]
        if not levels or levels[-1] == "-O0":
            fail(f"refusing to measure an unoptimized build ({name}: {f})")
        if any(a.startswith("-fsanitize") for a in f):
            fail(f"refusing to measure a sanitizer build ({name}: {f})")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {"compiler": compiler, "compiler_version": version[0] if version else "",
            "flags": flags}


def host():
    cpus = sorted(os.sched_getaffinity(0))
    cores = set()
    for cpu in cpus:
        topo = f"/sys/devices/system/cpu/cpu{cpu}/topology"
        try:
            with open(f"{topo}/physical_package_id") as f:
                package = f.read().strip()
            with open(f"{topo}/core_id") as f:
                core = f.read().strip()
            cores.add((package, core))
        except OSError:
            pass
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(cpus), "physical_cores": len(cores) or None,
            "cpu_model": model, "online_cpus": os.cpu_count()}


def source_identity(root):
    """git sha when the checkout is a repository, and a hash of the sources."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", BENCH_NAME):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.path.realpath(os.getcwd())
    definition = load_definition(root)
    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        fail(f"--seed must be >= 0 and --seconds in [1, {MAX_SECONDS}]")
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from the root of a pipemap checkout")

    out = build_dir(root)
    try:
        build(root, out)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    stamp = {"host": host(), "build": effective_flags(root, out),
             **source_identity(root)}

    work = os.path.join(root, ".bench_tmp", f"run-{os.getpid()}")
    results = os.path.join(root, ".bench_results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", os.path.join(out, "pipemap_tools", "pipemap_server"),
           "--work-dir", work]
    # The harness and the server it spawns share a fresh process group, so
    # nothing it started can outlive this script.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    timeout = args.seconds + HARNESS_MARGIN_S
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
        fail(f"harness did not finish within {timeout} s")
    stop_group(proc.pid)
    sys.stderr.write(stderr)
    try:
        run = json.loads(stdout)
    except json.JSONDecodeError:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"harness exited {proc.returncode} without a result")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    if "spans_file" in run:
        spans = os.path.join(results, tag + "-spans.json")
        shutil.move(run["spans_file"], spans)
        run["spans_file"] = os.path.relpath(spans, root)
    shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    source = run.get(section, {})
    metrics = {}
    for m in definition[section]:
        if m["name"] not in source:
            fail(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    mismatches = run["failures"].get("mismatch", 0)
    correct = run["valid"] and mismatches == 0 and proc.returncode == 0
    line = {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}

    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "stamp": stamp, "harness": run, "result": line}, f, indent=1)

    units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    units.update(error_rate="ratio", server_rss_mb="MB")
    for name, value in run["end_to_end"].items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}")
    steal = run["raw"]["window"]["host_steal_share"]
    print(f"{args.workload} host CPU steal {steal:.3f} of busy time in the window")
    for reason in run["invalid_reasons"]:
        print(f"{args.workload} INVALID: {reason}")
    if mismatches:
        print(f"{args.workload} ORACLE: {mismatches} responses differ from "
              "the uncached reference")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
