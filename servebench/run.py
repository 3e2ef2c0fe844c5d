#!/usr/bin/env python3
"""Serve-and-repair benchmark: build, run one workload, report its metrics.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the C++ harness (servebench/CMakeLists.txt, which compiles the library
from this checkout) into $CARGO_TARGET_DIR (default .bench_build), runs one
workload and prints every metric by name and unit, then as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the per-layer
set, one of them read here from the exported trace. Exits non-zero
without a result line when the build, a correctness check or the metric set
fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "servebench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if _have("ninja") else []
            if subprocess.call(["cmake", "-S", HERE, "-B", out] + generator,
                               stdout=log, stderr=subprocess.STDOUT) != 0:
                _dump(log_path)
                fail("cmake configure failed")
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        if subprocess.call(["cmake", "--build", out, "--target", "servebench",
                            "-j", jobs], stdout=log,
                           stderr=subprocess.STDOUT) != 0:
            _dump(log_path)
            fail("build failed")
    return os.path.join(out, "servebench")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _dump(path):
    with open(path) as f:
        sys.stderr.write("".join(f.readlines()[-30:]))


def scrub_detect_share(trace_path):
    """Share of the last traced segment the scrubber spent in `detect`.

    Reads the library's own `detect` spans from the exported trace, which
    holds the last traced segment (marked by the harness's `traced_window`
    span), the drill and the probes.
    """
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    window = next(((e["ts"], e["ts"] + e["dur"]) for e in events
                   if e["name"] == "traced_window"), None)
    if window is None or window[1] <= window[0]:
        fail("the exported trace has no traced_window span")
    busy = sum(e["dur"] for e in events
               if e["name"] == "detect" and window[0] <= e["ts"] < window[1])
    return busy / (window[1] - window[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    trace_path = os.path.join(build_dir(), f"trace-{args.workload}.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_path]
    print(f"servebench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with code {proc.returncode}")
    raw = json.loads(lines[-1])
    if raw["errors"]:
        fail("correctness check failed: " + "; ".join(raw["errors"]))

    measured = {name: (m["value"], m["unit"])
                for name, m in raw["per_layer" if args.trace
                                   else "end_to_end"].items()}
    if args.trace:
        measured["runtime.scrub_detect_share"] = (
            scrub_detect_share(trace_path), "ratio")

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in measured:
            fail(f"metric {name} was not measured")
        value, unit = measured[name]
        if unit != m["unit"]:
            fail(f"metric {name}: unit {unit}, BENCHMARK.json says {m['unit']}")
        if value is None or (not args.trace and value == 0):
            fail(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
