"""The repository benchmark: one command, four workloads, named metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-n30 --seed 1 --seconds 20 --trace 0

Workloads: ``solve-n30``, ``table3-fused``, ``gateway-zipf`` and
``islands-loopback`` (see ``BENCHMARK.json`` for why each exists). The
inputs are generated from ``--seed``; the library only receives them.
Every output is checked, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each
``{"value", "unit"}``). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ledger of a traced pass. The line before it
holds provenance and the figures a metric needs to be read (tail
percentile and sample count, latency limit, failure fraction).

End-to-end metrics (an operation is one solve, one ``map_many`` call, one
gateway request or one loopback solve):

* ``setup_s`` -- median of the set-up (kernel load, instance generation
  and, for the gateway, service start and worker fork), repeated before
  and after the timed window;
* ``solves_per_s`` -- solves that passed every check per second (chains
  for table3-fused; answered requests for the gateway, where it follows
  the offered rate as long as the gateway keeps up);
* ``goodput_rps`` -- operations that passed and finished within the
  workload's ``common.LATENCY_LIMIT_MS`` per second;
* ``latency_p50_ms`` / ``latency_tail_ms`` -- median and the highest
  percentile with at least ten samples beyond it (gateway requests are
  timed from their due time);
* ``et_over_bound`` -- Eq. (2) ET over ``combined_lower_bound``, averaged
  once per distinct instance or job;
* ``peak_rss_mb`` -- peak RSS of the process plus its largest child.

The program is imported from ``src/`` next to this directory; compiled
kernels and trace dumps go to ``.bench_build/`` in the same checkout.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark cannot run (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-n30", "table3-fused", "gateway-zipf", "islands-loopback")


def _prepare_environment() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernels")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload and return its :class:`common.Outcome`."""
    from closed import run_closed

    if name == "gateway-zipf":
        import wl_gateway

        return wl_gateway.run(seed, seconds, trace, tiny)
    if name == "solve-n30":
        from wl_solve import SolveN30 as workload
    elif name == "table3-fused":
        from wl_table3 import Table3Fused as workload
    elif name == "islands-loopback":
        from wl_islands import IslandsLoopback as workload
    else:
        raise ValueError(f"unknown workload {name!r}")
    return run_closed(workload(), seed, seconds, trace, tiny)


def result_line(outcome, trace: bool) -> dict:
    from common import END_TO_END, PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(outcome.metrics) ^ set(units))}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        _prepare_environment()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import common

    started = time.perf_counter()
    backend = common.load_kernels()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": {**common.provenance(), "kernel_backend": backend},
        "latency_limit_ms": common.LATENCY_LIMIT_MS[args.workload],
        "fail_frac": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "run_wall_s": time.perf_counter() - started,
        **outcome.notes,
    }
    print(json.dumps(info, default=str))
    result = result_line(outcome, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] and outcome.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
