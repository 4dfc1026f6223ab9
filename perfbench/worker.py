"""One benchmark process: set a workload up, then run its timed loop.

Started by run.py, never imported by the library.  The process imports
pipret from the checkout's ``src`` directory, builds the workload's inputs
from the seed and prints ``READY``; the parent times process start to that
line as the set-up time.  ``--mode probe`` stops there.  ``--mode run`` then
runs the closed loop untraced; ``--mode trace`` runs it untraced for half of
``--seconds`` and traced for the other half.  The last line is ``RESULT``
followed by JSON.

Each operation is one ``cli.dispatch(RunConfig)`` plus ``cli.render_report``:
what ``pipret <command>`` runs, minus argument parsing and file writing.
Outputs are checked after each operation's clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import measure
import mix
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_phase(cli, workload, seconds: float, tracer=None) -> dict:
    """Repeat the mix's cycles until the timed operations add up to
    ``seconds``; only whole cycles are run."""
    latencies, labels, failures = [], [], []
    cycle_times, cycle_work, cycle_counts = [], [], []
    digest = hashlib.sha256()
    timed, cycle = 0.0, 0
    while timed < seconds:
        c_time, c_work = 0.0, 0
        before = Counter(tracer.counts) if tracer else None
        for op in workload.cycle(cycle):
            config = cli.RunConfig(op.command, dict(op.params), None, op.fmt, op.master_seed)
            if tracer:
                tracer.op_id += 1
                mismatches = tracer.counts["protocol.decode_mismatches"]
            error = text = None
            start = time.perf_counter()
            try:
                report, status = cli.dispatch(config)
                text = cli.render_report(report, config.fmt)
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if error is None and status != 0:
                error = f"exit status {status}"
            if error is None:
                with tracer.paused() if tracer else nullcontext():
                    error = op.check(report)
            if error is None and tracer and tracer.counts["protocol.decode_mismatches"] > mismatches:
                error = "a retrieval decoded symbols that differ from the data"
            latencies.append(elapsed)
            labels.append(op.label)
            c_time += elapsed
            if error is None:
                c_work += op.work
            else:
                failures.append(f"{op.label}: {error}")
            if cycle == 0 and text is not None:
                digest.update(text.encode())
        cycle_times.append(c_time)
        cycle_work.append(c_work)
        if tracer:
            delta = Counter(tracer.counts)
            delta.subtract(before)
            cycle_counts.append({k: delta[k] for k in tracing.EXACT_COUNTS})
        timed += c_time
        cycle += 1
    return {
        "latencies": latencies,
        "labels": labels,
        "failures": failures,
        "cycle_times": cycle_times,
        "cycle_work": cycle_work,
        "cycle_counts": cycle_counts,
        "report_sha256": digest.hexdigest(),
    }


def _count_mismatches(phase: dict, record: Path, source: str) -> list:
    """Exact counts must agree between the traced cycles of this run and
    with an earlier run of the same seed on the same source tree."""
    problems = []
    cycles = phase["cycle_counts"]
    for i, counts in enumerate(cycles[1:], start=1):
        if counts != cycles[0]:
            problems.append(f"cycle {i} counts {counts} differ from cycle 0 {cycles[0]}")
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier.get("source_sha256") == source and earlier.get("counts") != cycles[0]:
            problems.append(f"counts {cycles[0]} differ from the earlier run {earlier['counts']}")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"source_sha256": source, "counts": cycles[0]}, sort_keys=True))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["probe", "run", "trace"], required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from pipret import cli

    out_dir = ROOT / ".bench_out"
    # relative to the checkout (the working directory), so input paths and
    # with them the report digest do not depend on where the checkout lives
    workdir = Path(".bench_out") / f"work-{args.workload}-seed{args.seed}"
    workload = mix.build(args.workload, args.seed, workdir)
    print("READY", flush=True)
    try:
        if args.mode == "probe":
            return 0
        result = {"unit": workload.unit}
        if args.mode == "run":
            result["phase"] = run_phase(cli, workload, args.seconds)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            reference = run_phase(cli, workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(cli, workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            n_cycles = len(traced["cycle_times"])
            metrics = tracing.per_layer_metrics(
                tracing.self_times(tracer.spans), tracer.counts, tracer.gauges, n_cycles
            )
            untraced_rate, traced_rate = measure.median_rate(reference), measure.median_rate(traced)
            metrics["trace.untraced_work_per_s"] = {"value": untraced_rate, "unit": "1/s"}
            metrics["trace.traced_work_per_s"] = {"value": traced_rate, "unit": "1/s"}
            metrics["trace.overhead_share"] = {
                "value": (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0,
                "unit": "ratio",
            }
            source = measure.source_digest(ROOT / "src" / "pipret")
            record = out_dir / "counts" / f"{args.workload}-seed{args.seed}.json"
            spans_path = out_dir / f"spans-{args.workload}.npz"
            tracer.write(spans_path)
            result.update(
                phase=reference,
                traced_phase=traced,
                per_layer=metrics,
                exact_counts=traced["cycle_counts"][0],
                count_mismatches=_count_mismatches(traced, record, source),
                spans_file=str(spans_path.relative_to(ROOT)),
                spans=len(tracer.spans),
            )
        result["env"] = measure.environment(ROOT, args.seed)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
