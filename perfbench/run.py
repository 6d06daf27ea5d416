#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The harness is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` in the current directory). Its last output line is a JSON
object with the metrics it measured; this wrapper completes it against
BENCHMARK.json: with `--trace 0` every end-to-end metric must be present,
and with `--trace 1` every per-layer metric is reported, as 0 where the
workload does not exercise that layer. `--workload all` runs every
workload untraced and then traced, each in a process of its own, prints
every metric of every run, and ends with one JSON line that counts the
operations of all runs; it exits non-zero if any run failed a check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
DECLARATION = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def fail(msg, code=3):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed", done.returncode)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def arg(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def with_arg(argv, flag, value):
    """`argv` with `flag` set to `value`."""
    out = list(argv)
    if flag in out and out.index(flag) + 1 < len(out):
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return out


def complete(result, traced, declaration):
    """Fills the result's metrics to exactly the declared set of its mode.

    Metrics declared for the other mode (the wall-clock figures behind
    the calibrated ones, say) are printed by the harness and left out of
    the JSON line here.
    """
    declared = declaration["per_layer" if traced else "end_to_end"]
    other = {m["name"] for m in declaration["end_to_end" if traced else "per_layer"]}
    measured = result["metrics"]
    metrics = {}
    idle = []
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']!r}, declared {unit!r}")
            metrics[name] = measured[name]
        elif traced:
            metrics[name] = {"value": 0, "unit": unit}
            idle.append(name)
        else:
            fail(f"end-to-end metric {name} was not measured")
    extra = sorted(set(measured) - set(metrics) - other)
    if extra:
        fail(f"undeclared metrics measured: {', '.join(extra)}")
    if idle:
        print(f"run.py: layers idle on this workload, reported as 0: {', '.join(idle)}", file=sys.stderr)
    result["metrics"] = metrics
    return result


def run_one(exe, argv, env, declaration):
    """Runs the harness once; prints its metric lines and returns its
    completed result (None if it printed none) and exit code."""
    run = subprocess.run([exe] + argv, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        if lines:
            print(lines[-1])
        return None, run.returncode or 3
    result = complete(json.loads(lines[-1]), arg(argv, "--trace") == "1", declaration)
    return result, run.returncode


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(env)
    with open(DECLARATION) as f:
        declaration = json.load(f)
    if arg(argv, "--workload") != "all":
        result, code = run_one(exe, argv, env, declaration)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)
    total = {"correct": True, "attempted": 0, "failed": 0, "runs": []}
    worst = 0
    for w in declaration["workloads"]:
        for trace in ("0", "1"):
            one = with_arg(with_arg(argv, "--workload", w["name"]), "--trace", trace)
            result, code = run_one(exe, one, env, declaration)
            worst = worst or code
            if result is None:
                total["correct"] = False
                continue
            print(f"{w['name']} trace={trace} {json.dumps(result)}")
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["runs"].append({"workload": w["name"], "trace": int(trace), "correct": result["correct"]})
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
