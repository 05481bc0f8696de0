#!/usr/bin/env python3
"""The repository benchmark: one command for the four acorn workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload

Builds the workload runner (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ and runs each workload as
ROUNDS rounds, each in a fresh process on one CPU (each CPU in turn) and
on the same inputs, so that every round pays a fresh process's set-up.
The gated times are on the process CPU clock, and host noise only ever
adds to them, so it keeps the fastest repetition of the same work (see
`combine`). It runs the workload's fixed check case in a process of its
own, checks the outputs against perfbench/expected.json, prints every
metric with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones (each traced round also times an
untraced pass of the same inputs and reports the difference as its
overhead). Host diagnostics (CPU steal share, a fixed ALU and
memory-latency canary before and after the workload) are printed beside
every run and never gated on. Exit status: 0 when every output matched,
1 when a check failed or the workload crashed, 2 when the benchmark could
not be built or run.
"""
import argparse
import ctypes
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["wlan_durable", "fleet_churn", "offline_gap", "baseband_coded"]
# Rounds per run; each times --seconds / ROUNDS of nominal work.
ROUNDS = 48
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build the runner; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake is not installed")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                die("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            die("build failed")
    binary = out / "perfbench"
    if not binary.is_file():
        die(f"build produced no {binary}")
    return binary


def quantile(values, q):
    """Linear-interpolation quantile of sorted values, the runner's rule."""
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def fixed_layout():
    """Run the child with address-space randomization off (personality
    ADDR_NO_RANDOMIZE). With a random layout each process of a compute-
    bound workload lands in one of several cache-alignment modes: on a
    shared 4-vCPU VM ten baseband runs spread 17% (IQR/median) with it and
    4% without. Where the call is refused the run is only noisier."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | 0x0040000)


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:9]
    return [int(x) for x in fields]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def canary(binary):
    res = subprocess.run([str(binary), "--canary"], capture_output=True,
                         text=True, timeout=60, preexec_fn=fixed_layout)
    if res.returncode != 0:
        return {"alu_ms": float("nan"), "mem_ns": float("nan")}
    return json.loads(res.stdout.strip().splitlines()[-1])


def compare_checks(workload, checks, expected):
    """Recorded-expectation comparison: one failure per mismatched value."""
    want = expected.get(workload, {})
    mismatches = []
    for key, value in sorted(want.items()):
        if checks.get(key) != value:
            mismatches.append(f"{key}: got {checks.get(key)!r}, "
                              f"recorded {value!r}")
    for key in sorted(set(checks) - set(want)):
        mismatches.append(f"{key}: {checks[key]!r} has no recorded value")
    return len(want), mismatches


def run_process(cmd, workdir, deadline, cpu=None):
    """Runs one runner process in a fresh `workdir`, on `cpu` alone when
    given; its raw report, or None when it failed or ran out of time."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def prepare():
        fixed_layout()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    try:
        res = subprocess.run(cmd + ["--workdir", str(workdir)],
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()),
                             preexec_fn=prepare)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(cmd[1:])} ran out of time")
        return None
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"perfbench: {' '.join(cmd[1:])} exited with status "
            f"{res.returncode}")
        return None
    return json.loads(lines[-1])


def median_metrics(rounds, key):
    """Per-name median over the rounds of one metric section."""
    out = {}
    for name in rounds[0][key]:
        values = [r[key][name]["value"] for r in rounds if name in r[key]]
        first = rounds[0][key][name]
        out[name] = {"value": statistics.median(values), "unit": first["unit"],
                     "samples": sum(r[key][name]["samples"]
                                    for r in rounds if name in r[key])}
    return out


def latencies(rounds):
    """Latency p50 and p99 of a run, and how many values each is over.

    An offline item is a call of its own, so its fastest CPU time over the
    rounds is its cost, and the quantiles are over those costs. Online
    requests are pipelined, and each waits on those ahead of it, so there
    the quantiles are each round's own, and the run keeps the lowest."""
    if "item_us" in rounds[0]:
        fastest = sorted(map(min, *(r["item_us"] for r in rounds)))
        return quantile(fastest, 0.50), quantile(fastest, 0.99), len(fastest)
    return (min(r["latency_p50_us"] for r in rounds),
            min(r["latency_p99_us"] for r in rounds),
            sum(r["items"] for r in rounds))


def combine(rounds):
    """The run's figures from its rounds, and what did not repeat.

    Every round times the same inputs, so part k does the same work in
    each, and host noise only ever adds time. Throughput is the work of a
    round over the sum of each part's fastest CPU time; setup_s is the
    fastest set-up; the latencies are as `latencies` says."""
    failures = []
    units = rounds[0]["part_units"]
    if any(r["part_units"] != units or r["items"] != rounds[0]["items"]
           for r in rounds):
        failures.append("rounds on the same inputs split into different parts")
        return None, None, None, failures
    n = len(rounds)
    cpu_s = sum(min(r["part_cpu_ns"][k] for r in rounds)
                for k in range(len(units))) / 1e9
    p50, p99, lat_n = latencies(rounds)
    e2e = {
        "throughput_per_s": {"value": sum(units) / cpu_s, "unit": "1/s",
                             "samples": n * sum(units)},
        "latency_p99_us": {"value": p99, "unit": "us", "samples": lat_n},
        "peak_rss_mb": {"value": statistics.median(
            r["peak_rss_mb"] for r in rounds), "unit": "MB", "samples": n},
        "setup_s": {"value": min(r["setup_s"] for r in rounds),
                    "unit": "s", "samples": n},
    }
    info = median_metrics(rounds, "info")
    info["latency_p50_us"] = {"value": p50, "unit": "us", "samples": lat_n}
    # What the wall clock showed, medians over the rounds: host noise
    # included, and any time the program spent waiting.
    wall_s = sum(statistics.median(r["part_wall_ns"][k] for r in rounds)
                 for k in range(len(units))) / 1e9
    info["wall_throughput_per_s"] = {"value": sum(units) / wall_s,
                                     "unit": "1/s", "samples": n * sum(units)}
    info["wall_setup_s"] = {"value": statistics.median(
        r["setup_wall_s"] for r in rounds), "unit": "s", "samples": n}
    layers = median_metrics(rounds, "layers")
    for name, m in rounds[0]["layers"].items():
        if m["exact"] and any(r["layers"].get(name, {}).get("value")
                              != m["value"] for r in rounds):
            failures.append(f"{name} differs between rounds on the same "
                            f"inputs")
    return e2e, info, layers, failures


def run_workload(binary, workload, args, expected, bench):
    base = binary.parent / "run" / workload
    deadline = time.monotonic() + RUN_TIMEOUT_S
    steal0 = cpu_times()
    canary0 = canary(binary)
    started = time.monotonic()
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / ROUNDS), "--trace",
           str(args.trace)]
    # Round r runs on the r-th allowed CPU in turn, so that a tenant busy
    # beside one CPU for a while slows only some of the rounds.
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    for r in range(ROUNDS):
        workdir = base / f"r{r}"
        raw = run_process(cmd, workdir, deadline, cpus[r % len(cpus)])
        if raw is None:
            return None
        spans = workdir / f"spans_{workload}.txt"
        if spans.is_file():
            kept = binary.parent / "traces"
            kept.mkdir(exist_ok=True)
            shutil.move(str(spans), str(kept / f"spans_{workload}_r{r}.txt"))
        rounds.append(raw)
    check = run_process([str(binary), "--workload", workload, "--check"],
                        base / "check", deadline)
    elapsed = time.monotonic() - started
    canary1 = canary(binary)
    steal1 = cpu_times()
    shutil.rmtree(base, ignore_errors=True)
    if check is None:
        return None

    e2e, info, layers, repeats = combine(rounds)
    if e2e is None:
        log(f"perfbench: {workload}: {repeats[0]}")
        return None
    n_checks, mismatches = compare_checks(workload, check["checks"], expected)
    processes = rounds + [check]
    attempted = sum(r["attempted"] for r in processes) + n_checks
    failed = sum(r["failed"] for r in processes) + len(repeats) + \
        len(mismatches)
    failures = [f for r in processes for f in r["failures"]] + repeats + \
        mismatches
    section = layers if args.trace else e2e
    names = [m["name"] for m in bench["per_layer" if args.trace
                                       else "end_to_end"]]
    missing = [n for n in names if n not in section]
    if missing:
        log(f"perfbench: {workload} did not report {', '.join(missing)}")
        return None

    print(f"== {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  rounds {ROUNDS}  ({elapsed:.1f} s wall)")
    rows = sorted(e2e.items())
    rows += [("error_rate", {"value": failed / attempted if attempted else 0,
                             "unit": "ratio", "samples": attempted})]
    if args.trace:
        rows += sorted(layers.items())
    # An info row repeating a traced layer's name is its untraced value.
    rows += sorted((k if k not in layers else f"{k} (untraced)", v)
                   for k, v in info.items())
    for name, m in rows:
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']:<12s} "
              f"n={m['samples']}")
    print(f"   host: steal {100 * steal_share(steal0, steal1):.2f}%  "
          f"canary alu {canary0['alu_ms']:.1f} -> {canary1['alu_ms']:.1f} ms"
          f"  mem {canary0['mem_ns']:.1f} -> {canary1['mem_ns']:.1f} ns")
    for f in failures:
        print(f"   FAILED: {f}")
    metrics = {n: {"value": section[n]["value"], "unit": section[n]["unit"]}
               for n in names}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="recorded expectations to check outputs against")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be a non-negative integer")
    if not 0 < args.seconds <= 120:
        die("--seconds must be in (0, 120]")
    expected = json.loads(Path(args.expected).read_text())

    binary = build(build_dir())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        results[w] = run_workload(binary, w, args, expected, bench)
        if results[w] is None:
            die(f"{w} produced no result", code=1)

    if len(workloads) == 1:
        out = results[workloads[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
