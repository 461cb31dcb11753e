#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload asof_audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

A run builds perfbench/perfbench.exe with dune (a no-op once built), runs
one workload in a fresh process and passes its output through: sizing
facts, then one JSON result line.  Traced runs (--trace 1) also leave
their span dumps in .perfbench_out/.  The self-test checks the metric
names and units against BENCHMARK.json, that a corrupted oracle answer is
counted as a failure, and that the simulated-time parts of each op add up
to its whole.  See perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = ".perfbench_out"
TMP_DIR = ".perfbench_tmp"


def build(env):
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    if done.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_exe(args, env, capture=False):
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, *args, "--nproc", str(os.cpu_count() or 0), "--out", OUT_DIR]
    try:
        return subprocess.run(
            cmd, env=dict(env, TMPDIR=os.path.abspath(TMP_DIR)), capture_output=capture, text=True
        )
    finally:
        # Replica seeding writes its base backup here and removes it; drop
        # the directory so nothing outlives the run.
        shutil.rmtree(TMP_DIR, ignore_errors=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(env):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
        print(("ok   " if cond else "FAIL ") + what, flush=True)

    for w in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = run_exe(args, env, capture=True)
            res = result_of(proc) if proc.returncode == 0 else None
            expect(res is not None, f"{w} trace={trace}: exits 0 with a result line")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{w} trace={trace}: emits exactly its declared metrics and units")
            expect(res["correct"] and res["failed"] == 0, f"{w} trace={trace}: every oracle agrees")
            if trace == 1:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                parts = (
                    m["wal.device_sim_ms_per_op"] * 1e3
                    + m["storage.data_device_sim_ms_per_op"] * 1e3
                    + m["sim.side_file_us_per_op"]
                    + m["sim.access_cpu_us_per_op"]
                    + m["sim.unattributed_us_per_op"]
                )
                whole = m["sim.op_us_per_op"]
                expect(
                    whole > 0 and abs(parts - whole) <= 1e-9 * whole,
                    f"{w}: simulated parts + unattributed sum to the op delta ({parts:.6f} vs {whole:.6f} us)",
                )
                expect(
                    m["sim.unattributed_max_share"] <= 1e-6,
                    f"{w}: every op's simulated time is fully attributed "
                    f"(largest unattributed share {m['sim.unattributed_max_share']:.3g})",
                )
                expect(m["trace.dropped_events"] == 0, f"{w}: trace ring dropped no events")
        args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0", "--quick", "--corrupt-oracle"]
        proc = run_exe(args, env, capture=True)
        res = result_of(proc) if proc.returncode == 0 else None
        expect(
            res is not None and res["failed"] >= 1 and not res["correct"],
            f"{w}: a corrupted oracle answer is counted as a failure "
            f"({'no result' if res is None else res['failed']} failed)",
        )
    print("selftest: " + ("PASS" if not problems else f"FAIL ({len(problems)} checks)"))
    return 0 if not problems else 1


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not build(env):
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest(env)
    return run_exe(sys.argv[1:], env).returncode


if __name__ == "__main__":
    sys.exit(main())
