#!/usr/bin/env python3
"""Build and run the roughsim benchmark.

    python3 perfbench/run.py --workload <mf-fig5|sscm-dense|daemon-mix|all> \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --regen-refs [--force]
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds the `perfbench` package and
the `roughsimd` daemon from source (into `$CARGO_TARGET_DIR`, default
`.bench_build`), clears every `ROUGHSIM*` variable so that results never
depend on the caller's shell, runs the benchmark binary and turns its last
output line into the result object, adding each metric's unit from
`BENCHMARK.json`. `--workload all` runs every workload in turn, each
printing its own result line. The exit code is non-zero on a build failure,
a run failure or any correctness-reference mismatch.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
SCRATCH = ".perfbench-run"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cargo(args, env):
    """Runs cargo offline and quietly; its output goes to stderr."""
    result = subprocess.run(["cargo", *args, "--offline", "--quiet"], env=env,
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"`cargo {' '.join(args)}` failed with exit code {result.returncode}")


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROUGHSIM")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    declared = {m["name"] for m in spec["per_layer"]}
    mapped = {m["name"] for m in layers["per_layer"]}
    if declared != mapped:
        fail(f"BENCHMARK.json and layers.json disagree on {sorted(declared ^ mapped)}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    args = sys.argv[1:]
    env = pinned_env()
    if "--selftest" in args:
        manifest = os.path.join(BENCH_DIR, "Cargo.toml")
        result = subprocess.run(["cargo", "test", "--release", "--offline",
                                 "--manifest-path", manifest], env=env)
        sys.exit(result.returncode)

    target = env["CARGO_TARGET_DIR"]
    cargo(["build", "--release", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], env)
    cargo(["build", "--release", "-p", "rough-service", "--bin", "roughsimd"], env)
    binary = os.path.join(target, "release", "perfbench")
    command = [binary, *args, "--bench-dir", BENCH_DIR, "--scratch", SCRATCH,
               "--daemon-bin", os.path.join(target, "release", "roughsimd")]
    if "--regen-refs" in args:
        sys.exit(subprocess.run(command + ["--commit", git_commit()], env=env).returncode)

    trace = args[args.index("--trace") + 1:][:1] == ["1"] if "--trace" in args else False
    units = expected_metrics(trace)
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        # Every workload in turn, each ending with its own result line.
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        at = command.index("all")
        codes = [run_one(command[:at] + [name] + command[at + 1:], env, units)
                 for name in names]
        sys.exit(max(codes))
    sys.exit(run_one(command, env, units))


def run_one(command, env, units):
    """Runs the binary once and prints its result with units; returns the
    binary's exit code."""
    run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"the benchmark binary printed no result (exit code {run.returncode})")
    got = set(raw["metrics"])
    if got != set(units):
        fail(f"metric set differs from BENCHMARK.json: {sorted(got ^ set(units))}")
    raw["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in sorted(raw["metrics"].items())}
    print(json.dumps(raw), flush=True)
    return run.returncode

if __name__ == "__main__":
    main()
