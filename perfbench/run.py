#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default `.bench_build`), twice: as shipped
(obs on) and with obs compiled out, which only the traced run uses for
the `obs.share` ablation. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the exit code
is non-zero when a correctness check failed or the build failed. See
perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Share of --seconds the traced run gives its untraced baseline segment;
# the obs-off run gets the same budget so the two medians cover the same
# inputs. Mirrors the split in src/main.rs.
BASELINE_SHARE = {
    "swim_paper": 0.25,
    "swim_wide": 0.25,
    "master_scale": 1.0 / 3.0,
    "tcp_cluster": 0.5,
}
RUN_TIMEOUT_S = 170


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(obs_on):
    """Build one variant and copy its binary aside; return its path."""
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST]
    if not obs_on:
        cmd.append("--no-default-features")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if shutil.which("cargo") is None:
        raise RuntimeError("cargo is not on PATH")
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    built = os.path.join(target_dir(), "release", "dyrs-perfbench")
    dest_dir = os.path.join(target_dir(), "perfbench-bin")
    os.makedirs(dest_dir, exist_ok=True)
    dest = os.path.join(dest_dir, "obs_on" if obs_on else "obs_off")
    # Copy then rename, so a binary another run is executing is replaced,
    # not overwritten in place.
    shutil.copy2(built, dest + ".tmp")
    os.replace(dest + ".tmp", dest)
    return dest


def run(binary, args):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    env = dict(os.environ, PERFBENCH_OUT=os.path.join(target_dir(), "perfbench-spans"))
    p = subprocess.run(
        [binary] + args, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    return p.returncode, p.stdout.splitlines()


def result_of(lines):
    if not lines:
        raise RuntimeError("benchmark printed nothing")
    return json.loads(lines[-1])


def check_names(result, trace):
    """The metrics must be exactly the ones BENCHMARK.json lists."""
    if not os.path.exists(BENCHMARK_JSON):
        return
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if want != got:
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - got), sorted(got - want))
        )


def self_test():
    """Unit tests of the benchmark, then a forced failure that must count."""
    subprocess.run(
        ["cargo", "test", "--release", "--manifest-path", MANIFEST],
        check=True,
        env=dict(os.environ, CARGO_TARGET_DIR=target_dir()),
        stdout=sys.stderr,
    )
    binary = build(obs_on=True)
    args = ["--workload", "swim_paper", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    code, lines = run(binary, args + ["--force-failure"])
    r = result_of(lines)
    assert code != 0 and not r["correct"] and r["failed"] >= 1, (code, r)
    code, lines = run(binary, args)
    a, b = result_of(lines), result_of(run(binary, args)[1])
    assert code == 0 and a["correct"] and a["failed"] == 0, (code, a)
    assert a["metrics"]["mem_read_frac"] == b["metrics"]["mem_read_frac"], (a, b)
    log("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(BASELINE_SHARE))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test()
        return 0
    if a.workload is None or a.seed is None:
        ap.error("--workload and --seed are required")

    on = build(obs_on=True)
    off = build(obs_on=False)
    args = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace:
        base = a.seconds * BASELINE_SHARE[a.workload]
        code, lines = run(off, args + ["--seconds", repr(base), "--trace", "0"])
        log("\n".join(lines))
        if code != 0:
            log("obs-off run failed (exit %d)" % code)
            return code or 1
        off_ms = result_of(lines)["metrics"]["op_ms.p50"]["value"]
        args += ["--obs-off-op-ms", repr(off_ms)]
    code, lines = run(on, args + ["--seconds", repr(a.seconds), "--trace", str(a.trace)])
    if code == 0:
        check_names(result_of(lines), a.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
