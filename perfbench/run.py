"""The pipret benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

Each workload runs in fresh worker processes (worker.py) on a closed loop
with one client.  ``--trace 0`` reports the end-to-end metrics; set-up time
is the median over SETUP_SAMPLES fresh processes.  ``--trace 1`` reports the
per-layer metrics of a separate traced run.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 whenever a result is printed; ``correct`` says whether every
output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from mix import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float):
    """Run one worker; returns (set-up seconds, parsed RESULT or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} failed (exit {proc.returncode})")
    if mode == "probe":
        return setup, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed no result")
    return setup, json.loads(lines[-1][len("RESULT "):])


def end_to_end(setups: list, res: dict) -> dict:
    phase = res["phase"]
    lat = phase["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "work_per_s": measure.median_rate(phase),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * measure.tail(lat)["value"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Everything one contract run measures, plus its context."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        _, res = spawn("trace", workload, seed, seconds, deadline)
        phases = [res["phase"], res["traced_phase"]]
        metrics = res["per_layer"]
        problems = list(res["count_mismatches"])
    else:
        setups = [spawn("probe", workload, seed, seconds, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, res = spawn("run", workload, seed, seconds, deadline)
        setups.append(setup)
        phases = [res["phase"]]
        metrics = end_to_end(setups, res)
        res["setup_samples"] = setups
        problems = []
    failures = [f for p in phases for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in phases)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "unit": res["unit"],
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "problems": problems,
        "metrics": metrics,
        "tail": measure.tail(res["phase"]["latencies"]),
        "cycles": len(res["phase"]["cycle_times"]),
        "report_sha256": res["phase"]["report_sha256"],
        "detail": res,
    }


def describe(out: dict) -> list:
    """Human-readable lines: each metric by name with its unit."""
    lines = [f"workload {out['workload']}  seed {out['seed']}  trace {out['trace']}  "
             f"cycles {out['cycles']}  ops {out['attempted']}"]
    for name, m in out["metrics"].items():
        note = ""
        if name == "work_per_s":
            note = f"  ({out['unit']} per second)"
        elif name == "op_tail_ms":
            t = out["tail"]
            note = f"  (p{t['percentile']:.1f}: {t['beyond']} of {t['ops']} ops beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(out['detail']['setup_samples'])} fresh processes)"
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"  {'failed_ratio':40s} {out['failed'] / out['attempted']:.6g} ratio"
                 f"  ({out['failed']} of {out['attempted']})")
    for f in out["failures"] + out["problems"]:
        lines.append(f"  FAILED {f}")
    lines.append(f"  report digest sha256 {out['report_sha256']}")
    lines.append("env " + json.dumps(out["detail"]["env"], sort_keys=True))
    return lines


def _save(out: dict) -> None:
    path = ROOT / ".bench_out" / f"result-{out['workload']}-seed{out['seed']}-trace{out['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, with a summary table."""
    rows, ok = [], True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        for out in (plain, traced):
            _save(out)
            print("\n".join(describe(out)), flush=True)
            ok = ok and out["correct"]
        rows.append((plain, traced))
    print("\nsummary (end to end from untraced runs; overhead from traced runs)")
    names = list(END_TO_END_UNITS) + ["failed_ratio", "trace.overhead_share"]
    print(f"{'metric':24s}" + "".join(f"{p['workload']:>14s}" for p, _ in rows))
    for name in names:
        cells = []
        for plain, traced in rows:
            if name == "failed_ratio":
                v = plain["failed"] / plain["attempted"]
            elif name in plain["metrics"]:
                v = plain["metrics"][name]["value"]
            else:
                v = traced["metrics"][name]["value"]
            cells.append(f"{v:14.5g}")
        unit = END_TO_END_UNITS.get(name, "ratio")
        print(f"{name + ' [' + unit + ']':24s}" + "".join(cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pipret benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pipret" / "cli.py").is_file():
        print(f"error: no pipret sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _save(out)
    print("\n".join(describe(out)))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
