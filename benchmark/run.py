#!/usr/bin/env python3
"""End-to-end benchmark of shapdb: builds the benchmark and the `shapdb`
binary from source, runs one workload, and prints its result.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --selftest

Run from the repository root. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and the `metrics` BENCHMARK.json names:
its `end_to_end` metrics with `--trace 0`, its `per_layer` metrics with
`--trace 1`. The lines before it are the human-readable report. Every
result is also recorded, with the environment it ran in, under
`.bench_out/`. The exit code is non-zero when an output check fails.

`--selftest` runs every workload once per trace mode at smoke scale
(`JobConfig::smoke()`, a small serve pool) and fails loudly when a run
fails, a check fails, or a metric BENCHMARK.json names is missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Relative to ROOT, the working directory of every run: a Unix socket path
# must stay short whatever the checkout's location.
OUT = ".bench_out"
# A run ends well within this; past it the run and the server it started
# are killed, so nothing outlives the command.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the benchmark and the server binary; returns their paths."""
    for need in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"`{need}` is missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    base = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    for extra in ([], ["-p", "shapdb_cli", "--bin", "shapdb"]):
        r = subprocess.run(base + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail("cargo build failed")
    release = os.path.join(target, "release")
    return os.path.join(release, "shapdb-e2e"), os.path.join(release, "shapdb")


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "benchmark"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            for f in fs
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "platform": platform.platform(),
    }


def run_workload(bench, server, workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark binary; returns (report lines, full result)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server", server, "--out-dir", OUT]
    if smoke:
        cmd.append("--smoke")
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"{workload} exited with code {p.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select(full, names):
    """The result line: the named metrics only, each present and finite."""
    metrics = {}
    for m in names:
        got = full["metrics"].get(m["name"])
        value = None if got is None else got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None, f"metric {m['name']} missing"
        if got["unit"] != m["unit"]:
            return None, f"metric {m['name']} has unit {got['unit']}, not {m['unit']}"
        metrics[m["name"]] = got
    result = {k: full[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    return result, None


def selftest(bench, server, s):
    problems = []
    for w in s["workloads"]:
        for trace, names in ((0, s["end_to_end"]), (1, s["per_layer"])):
            _, full = run_workload(bench, server, w["name"], 1, 1, trace, smoke=True)
            result, why = select(full, names)
            if why:
                problems.append(f"{w['name']} trace {trace}: {why}")
            elif not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: output checks failed")
            elif trace == 0 and any(v["value"] <= 0 for v in result["metrics"].values()):
                problems.append(f"{w['name']}: an end-to-end metric reads 0")
            else:
                print(f"ok  {w['name']} trace {trace}: {result['attempted']} operations checked")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    s = spec()
    bench, server = build()
    if args.selftest:
        sys.exit(selftest(bench, server, s))
    names = [w["name"] for w in s["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    if args.seconds is None:
        args.seconds = s["run_seconds"]
    report, full = run_workload(bench, server, args.workload, args.seed, args.seconds, args.trace)
    result, why = select(full, s["per_layer"] if args.trace else s["end_to_end"])
    if why:
        fail(why)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in s["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "facts": full.get("facts", {}),
        "all_metrics": full["metrics"],
        "result": result,
    }
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    path = os.path.join(ROOT, OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
    for line in report:
        print(line)
    env = record["environment"]
    print(f"   commit = {env['commit']}; sources = {env['source_sha256'][:16]}; "
          f"nproc = {env['nproc']}; {env['rustc']}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
