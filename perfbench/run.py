"""End-to-end host benchmark of the LTPG batch path.

Run from the repository root::

    python3 perfbench/run.py --workload tpcc-w32 --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced episodes and prints the per-layer metrics, the
per-layer self times and the tracing overhead, and writes the spans as
Chrome ``trace_event`` JSON under ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is 0
only when every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")


def _table(rows: list[tuple[str, float, str, str]]) -> str:
    lines = [f"  {'metric':<28} {'value':>16}  {'unit':<7} clock"]
    for name, value, unit, clock in rows:
        lines.append(f"  {name:<28} {value:>16.6g}  {unit:<7} {clock}")
    return "\n".join(lines)


def _write_trace(report, out_dir: Path) -> Path:
    tracks = [
        (f"episode {i} (traced)", ep.rec.spans)
        for i, ep in enumerate(report.episodes) if ep.traced
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{report.workload}-seed{report.seed}.json"
    process = f"host clock: perfbench {report.workload} seed {report.seed}"
    path.write_text(json.dumps(spans.to_chrome(tracks, process)))
    return path


def _self_time_lines(metrics: dict) -> list[str]:
    layers = ("workloads", "txn", "storage", "core", "unattributed")
    total = sum(metrics[f"self.{layer}_s"] for layer in layers)
    lines = ["self time per batch in the loop, by layer:"]
    for layer in layers:
        value = metrics[f"self.{layer}_s"]
        lines.append(f"  {layer:<14} {value * 1e3:10.2f} ms  {value / total:6.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to smoke-test size")
    parser.add_argument("--trace-dir", type=Path, default=HERE / "out",
                        help="where --trace 1 writes its Chrome trace")
    args = parser.parse_args(argv)

    _import_program()
    import harness

    if args.workload not in harness.WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOAD_NAMES)}")
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         toy=args.toy)

    wl = harness.workload(args.workload, toy=args.toy)
    plain = sum(not ep.traced for ep in report.episodes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(report.episodes)} episodes ({plain} untraced) of "
          f"{wl.batches} batches x {wl.batch_size} txns, closed loop, 1 thread")
    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    rows = [(name, value, *table[name]) for name, value in report.metrics.items()]
    if not args.trace:
        ratio = report.failed / max(report.attempted, 1)
        rows.append(("failed_ratio", ratio, *harness.FAILED_RATIO))
    print(_table(rows))
    if args.trace and report.metrics:
        print("\n".join(_self_time_lines(report.metrics)))
        print(f"tracing overhead: traced/untraced commit_tps = "
              f"{report.metrics['trace.overhead_ratio']:.4f}")
        print(f"trace: {_write_trace(report, args.trace_dir)}")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("ok" if report.correct else "FAILED"))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]}
            for name, value in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
