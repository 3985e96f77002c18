#!/usr/bin/env python3
"""effpot benchmark: run one workload, or compare two sets of results.

Run from the root of a checkout:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --compare DIR_A DIR_B

A run starts the workload in fresh processes (workloads.py) with
PYTHONPATH=src and BLAS/OpenMP thread counts set to 1 for those processes
only. It prints a readable report and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's end-to-end metrics, with ``--trace 1`` its
per-layer ones. Each run also writes a record under .perfbench/runs/, which
``--compare`` reads.

``--seconds`` sets the size of the workload, not a time limit: at
BENCHMARK.json's ``run_seconds`` the run does PASSES[workload] passes, and
proportionally more or fewer at other values. Every pass repeats the same
seeded inputs, so a faster program does the same work in less time and its
op percentiles stay comparable. Times are reference seconds: measured times
scaled by the host's speed, read with the probes in hostspeed.py beside the
work. ``--trace 1`` always runs one pass untraced and the same pass traced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench" / "runs"

# passes per run at --seconds run_seconds (BENCHMARK.json); README gives what
# they cost on the reference machine
PASSES = {"transport": 5, "general_potential": 2, "cli_cold": 3}
# set-up-only processes per untraced run, half before the workload and half
# after it; setup_s is the median of their reference times
SETUP_PROBES = 4
WARM_UP_STARTS = 2
PROCESS_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_workload_process(args: list, env: dict):
    """Start workloads.py; return (set-up seconds, final record or None)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workload's own CLI children too
        proc.communicate()
        raise BenchError(f"workload process exceeded {PROCESS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{err[-3000:]}")
    lines = out.strip().splitlines()
    setup = json.loads(lines[0])["ready"] - start
    return setup, (json.loads(lines[-1]) if len(lines) > 1 else None)


def setup_sample(common: list, env: dict, starts: list) -> float:
    """Measured set-up seconds of one set-up-only process, after a start probe."""
    starts.append(hostspeed.start_probe())
    return run_workload_process([*common, "--setup-only"], env)[0]


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": None, "caches": []}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"].append(f"L{level} {kind} {size}")
    return info


def load_bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(args) -> int:
    if not (SRC / "effpot" / "__init__.py").is_file():
        print(f"error: no effpot sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = load_bench()
    # One CPU for the whole run: the two vCPUs of the reference machine run at
    # different speeds, and a probe reads the speed of the CPU it ran on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    passes = 1 if args.trace else max(1, round(PASSES[args.workload] * seconds
                                                / bench["run_seconds"]))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    RUNS.mkdir(parents=True, exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        for _ in range(WARM_UP_STARTS):  # the first process after idle starts slowly
            hostspeed.start_probe()
        probes, starts = (0 if args.trace else SETUP_PROBES // 2), []
        setups = [setup_sample(common, env, starts) for _ in range(probes)]
        extra = ["--trace", "1", "--spans", f"{stem}.spans.csv"] if args.trace else []
        _, record = run_workload_process([*common, "--passes", str(passes), *extra], env)
        setups += [setup_sample(common, env, starts) for _ in range(probes)]
        if not args.trace:
            starts.append(hostspeed.start_probe())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_ref = [m * f for m, f in zip(setups, hostspeed.start_scales(starts))]
    if args.trace:
        wanted, values = bench["per_layer"], record["layers"]["metrics"]
    else:
        ops = record["ops"]
        values = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "wall_s": (ops["wall_s"], "s"),
            "op_p50_ms": (ops["p50_ms"], "ms"),
            "op_tail_ms": (ops["tail_ms"], "ms"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
        wanted = bench["end_to_end"]
    metrics, unexercised, missing = {}, [], []
    for spec in wanted:
        value, unit = values[spec["name"]]
        if value == "missing":  # a wrapped name is gone; unit holds the reason
            missing.append(f"{spec['name']} ({unit})")
        elif value is None:
            unexercised.append(spec["name"])
        # not measured reads 0; a missing counter is null, never 0
        metrics[spec["name"]] = {
            "value": None if value == "missing" else value or 0, "unit": spec["unit"]}

    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    full = {"args": vars(args), "passes": passes, "machine": {**machine(), "pinned_cpu": cpu},
            "setup_samples_s": setups, "setup_reference_s": setup_ref,
            "setup_start_probes_s": starts,
            "record": record, "result": result}
    with open(f"{stem}.json", "w") as fh:
        json.dump(full, fh, indent=1)
    report(args, passes, setups, setup_ref, record, metrics, unexercised, missing)
    print(json.dumps(result))
    return 0


def report(args, passes, setups, setup_ref, record, metrics, unexercised, missing) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!s:>22} {m['unit']}")
    if not args.trace:
        ops = record["ops"]
        print(f"  times are reference seconds (hostspeed.py): measured × the probes' "
              f"reference time / their time in this run; median op scale {ops['host_scale']:.3f}")
        print(f"  setup_s: median of {len(setups)} set-ups, reference "
              f"{', '.join(f'{x:.3f}' for x in setup_ref)} s; measured "
              f"{', '.join(f'{x:.3f}' for x in setups)} s")
        print(f"  {passes} passes over the same inputs: wall_s sums every op "
              f"(measured {ops['measured_op_s']:.3f} s); op_p50_ms and op_tail_ms are "
              f"percentiles of the {ops['op_n']} ops' median times over the passes; "
              f"op_tail_ms is p{ops['tail_percentile']} ({ops['tail_beyond']} ops beyond it)")
    print(f"  fail_frac {failed / attempted:.4f} ({failed} of {attempted} ops failed); "
          f"{record['checks_run']} checks run; correct {record['correct']}")
    for key in record["known_defects"]:
        print(f"  known defect present: {key}")
    for line in record["unexplained_failures"]:
        print(f"  UNEXPLAINED FAILURE {line}")
    if unexercised:
        print(f"  reported as 0, not measured on this workload: {', '.join(unexercised)}")
    if missing:
        print(f"  MISSING (reported as null): {', '.join(missing)}")


# ------------------------------------------------------------------- compare


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_results(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.rglob("*.json")):
        with open(path) as fh:
            data = json.load(fh)
        if "result" not in data:
            continue
        key = data["args"]["workload"]
        for name, m in data["result"]["metrics"].items():
            if m["value"] is not None:
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def verdict(a: list, b: list, better: str, bound) -> str:
    """better / worse / unchanged / unresolved for B against base A.

    Worse: B's median is worse than A's by more than the bound (by more than
    A's spread for a metric without a bound). Better: every B run beats every
    A run, or the medians differ by more than A's spread. Unresolved: a
    spread is wider than the bound and neither side wins every run.
    """
    qa, qb = _quartiles(a), _quartiles(b)
    med_a, med_b = qa[1], qb[1]
    if med_a == 0:
        return "unchanged" if med_b == 0 else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a)
    spread_a = (qa[2] - qa[0]) / abs(med_a)
    spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
    if all(sign * x < sign * y for x in b for y in a):
        return "better"
    all_worse = all(sign * x > sign * y for x in b for y in a)
    if bound is not None and max(spread_a, spread_b) > bound and not all_worse:
        return "unresolved"
    if worse_by > (spread_a if bound is None else bound):
        return "worse"
    if -worse_by > spread_a:
        return "better"
    return "unchanged"


def compare(dir_a: Path, dir_b: Path) -> int:
    bench = load_bench()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = _load_results(dir_a), _load_results(dir_b)
    print(f"A = {dir_a}   B = {dir_b}   ratio = B median / A median")
    for workload in sorted(set(a) & set(b)):
        print(f"\n{workload}")
        print(f"  {'metric':40s} {'A q1/median/q3':>32} {'B q1/median/q3':>32} {'ratio':>8}  verdict")
        for name in (n for n in specs if n in a[workload] and n in b[workload]):
            spec = specs[name]
            qa, qb = _quartiles(a[workload][name]), _quartiles(b[workload][name])
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            v = verdict(a[workload][name], b[workload][name], spec["better"], spec.get("bound"))
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"  {name:40s} {fa:>32} {fb:>32} {ratio:8.3f}  {v}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PASSES))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"),
                    help="compare the run records in two directories (a report, not a gate)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
