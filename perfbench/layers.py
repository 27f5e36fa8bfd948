"""Which library functions the traced run times, and the per-layer ledger.

:func:`install` substitutes timed wrappers for the public entry points of
each layer (module attributes for functions imported by name, class
attributes for methods). :func:`ledger` turns the recorded spans into the
``<module>.<metric>`` figures ``BENCHMARK.json`` lists under
``per_layer``. Layers a workload does not reach read 0.

Span names and what they time:

==================  ==========================================================
``kernels.genperm``  the backend GenPerm kernel (C, numba or numpy)
``kernels.eval``     the backend Eq. (2) batch-scoring kernel
``ce.step``          one CE iteration (single-chain or fused multi-chain)
``ce.sample``        the GenPerm wrapper: uniform draws, argsort, kernel call
``ce.update``        the Eq. (11)+(13) matrix update
``dedup``            duplicate-row collapse / row packing before scoring
``mapping.eval``     ``CostModel.evaluate_batch`` (validation + kernel)
``runtime.loop``     ``SearchLoop.run``
``service.submit``   ``MappingService.submit`` (one gateway request)
``service.key``      ``problem_key`` and ``cache_key`` of one request
``runstore.get/put`` ``ResultCache.get`` / ``ResultCache.put``
``parallel.*``       ``WorkerPool.publish_problem`` / ``WorkerPool.map_salvage``
``islands.*``        coordinator run, chain rounds, frame send/recv, encoding
==================  ==========================================================
"""

from __future__ import annotations

import dataclasses
import json
import threading
import types
from typing import Any

from common import PER_LAYER, median, per_op, tail
from spans import Span, Tracer, children_of, descendants, self_times

#: The spans that count toward ``trace.coverage_frac``: those whose time
#: the ledger reports, in full or as self time. Left out are the catch-all
#: wrappers ``runtime.loop`` (a whole search), ``service.submit`` (a whole
#: gateway request) and ``islands.coordinator`` (a whole loopback run),
#: and the coordinator thread's own frame sends and receives, which only
#: mirror the islands' work.
COVERING = frozenset(
    {
        "kernels.genperm",
        "kernels.eval",
        "ce.step",
        "ce.sample",
        "ce.update",
        "dedup",
        "mapping.eval",
        "service.key",
        "runstore.get",
        "runstore.put",
        "parallel.publish",
        "parallel.map_salvage",
        "islands.chain_round",
        "islands.encode",
        "islands.send",
        "islands.recv",
        "gen.late",
    }
)


def covers(span: Span) -> bool:
    """Whether ``span`` counts toward coverage (see :data:`COVERING`)."""
    if span.name in ("islands.send", "islands.recv"):
        return span.thread != threading.main_thread().ident
    return span.name in COVERING


def install(tracer: Tracer) -> None:
    """Substitute every timed wrapper; undone by ``tracer.restore()``."""
    import repro.ce.multichain as multichain
    import repro.ce.optimizer as optimizer
    import repro.islands.chains as chains
    import repro.islands.wire as wire
    import repro.kernels as kernels
    import repro.service.service as service
    from repro.ce.stochastic_matrix import StochasticMatrix
    from repro.islands.coordinator import IslandCoordinator
    from repro.mapping.cost_model import CostModel
    from repro.runstore.cache import ResultCache
    from repro.runtime.loop import SearchLoop
    from repro.utils.parallel import WorkerPool

    # kernels: one timed copy of the resolved backend table.
    base = kernels.get_backend()

    def genperm_rows(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["rows"] = int(result.shape[0])

    def eval_rows(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        pack = args[0]
        rows = int(result.shape[0])
        span.attrs["rows"] = rows
        # Computed, not measured: one multiply-add per task plus two per edge.
        span.attrs["ops"] = rows * (int(pack.n_tasks) + 2 * int(pack.eu.shape[0]))

    timed_backend = dataclasses.replace(
        base,
        genperm=tracer.wrap(base.genperm, "kernels.genperm", genperm_rows),
        eval_batch=tracer.wrap(base.eval_batch, "kernels.eval", eval_rows),
    )
    tracer.substitute(kernels, "get_backend", lambda: timed_backend)

    # ce / dedup / mapping / runtime
    tracer.patch(optimizer, "sample_permutations", "ce.sample")
    tracer.patch(multichain, "sample_permutations_stacked", "ce.sample")
    tracer.patch(chains, "sample_permutations", "ce.sample")
    tracer.patch(optimizer.CrossEntropyOptimizer, "step", "ce.step")
    tracer.patch(multichain.MultiChainCE, "step", "ce.step")
    tracer.patch(StochasticMatrix, "update_from_elites", "ce.update")
    tracer.patch(multichain, "stacked_elite_update", "ce.update")
    tracer.patch(optimizer, "collapse_duplicate_rows", "dedup")
    tracer.patch(multichain, "collapse_duplicate_rows", "dedup")
    tracer.patch(multichain, "pack_rows", "dedup")
    tracer.patch(CostModel, "evaluate_batch", "mapping.eval")
    tracer.patch(SearchLoop, "run", "runtime.loop")

    # service / runstore / parallel
    tracer.substitute(
        service.MappingService, "submit",
        tracer.wrap_async(service.MappingService.__dict__["submit"], "service.submit"),
    )
    tracer.patch(service, "problem_key", "service.key")
    tracer.patch(service, "cache_key", "service.key")
    tracer.patch(ResultCache, "get", "runstore.get")
    tracer.patch(ResultCache, "put", "runstore.put")
    tracer.patch(WorkerPool, "publish_problem", "parallel.publish")

    def salvage_report(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        items = list(args[2]) if len(args) > 2 else list(kwargs.get("items", ()))
        span.attrs["cells"] = len(items)
        span.attrs["seeds"] = [getattr(item, "seed", None) for item in items]
        span.attrs["retries"] = int(result.n_retries)
        span.attrs["respawns"] = int(result.n_respawns)
        span.attrs["failures"] = len(result.failures)

    tracer.patch(WorkerPool, "map_salvage", "parallel.map_salvage", salvage_report)

    # islands
    tracer.patch(IslandCoordinator, "run", "islands.coordinator")
    tracer.patch(chains, "chain_round", "islands.chain_round")
    tracer.patch(wire, "send_frame", "islands.send")
    tracer.patch(wire, "recv_frame", "islands.recv")
    tracer.patch(wire, "encode_matrix", "islands.encode")
    tracer.patch(wire, "decode_matrix", "islands.encode")

    def frame_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["bytes"] = len(result)

    codec = types.SimpleNamespace(
        dumps=tracer.wrap(json.dumps, "islands.encode", frame_bytes),
        loads=tracer.wrap(json.loads, "islands.encode"),
        JSONDecodeError=json.JSONDecodeError,
    )
    tracer.substitute(wire, "json", codec)


def ledger(tracer: Tracer, n_ops: int, *, extra: dict[str, float] | None = None) -> dict[str, float]:
    """Every per-layer metric from the traced pass (``n_ops`` operations).

    ``extra`` supplies the figures that come from the workload rather than
    from spans (gateway fractions, generator lateness, islands overhead,
    tracing overhead and coverage); anything missing reads 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    main_thread = threading.main_thread().ident
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(name: str) -> float:
        return 1000.0 * sum(s.duration for s in by_name.get(name, ()))

    def self_ms(name: str) -> float:
        return 1000.0 * sum(own[s.id] for s in by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in by_name.get(name, ())))

    def durations_ms(name: str) -> list[float]:
        return [1000.0 * s.duration for s in by_name.get(name, ())]

    genperm_rows = attr_sum("kernels.genperm", "rows")
    eval_rows = attr_sum("kernels.eval", "rows")
    recv_islands = [s for s in by_name.get("islands.recv", ()) if s.thread != main_thread]
    out = {
        "kernels.genperm_ms": per_op(total_ms("kernels.genperm"), n_ops),
        "kernels.genperm_rows": per_op(genperm_rows, n_ops),
        "kernels.eval_ms": per_op(total_ms("kernels.eval"), n_ops),
        "kernels.eval_rows": per_op(eval_rows, n_ops),
        "kernels.calls": per_op(
            len(by_name.get("kernels.genperm", ())) + len(by_name.get("kernels.eval", ())), n_ops
        ),
        "kernels.eval_ops_computed": per_op(attr_sum("kernels.eval", "ops"), n_ops),
        "ce.iterations": per_op(len(by_name.get("ce.step", ())), n_ops),
        "ce.sample_self_ms": per_op(self_ms("ce.sample"), n_ops),
        "ce.step_self_ms": per_op(self_ms("ce.step"), n_ops),
        "ce.update_ms": per_op(total_ms("ce.update"), n_ops),
        "dedup.ms": per_op(total_ms("dedup"), n_ops),
        "dedup.unique_frac": eval_rows / genperm_rows if genperm_rows else 0.0,
        "mapping.eval_self_ms": per_op(self_ms("mapping.eval"), n_ops),
        "runtime.self_ms": per_op(self_ms("runtime.loop"), n_ops),
        "runstore.cache_get_ms_p50": median(durations_ms("runstore.get")),
        "runstore.cache_put_ms_p50": median(durations_ms("runstore.put")),
        "parallel.publish_ms": per_op(total_ms("parallel.publish"), n_ops),
        "parallel.map_salvage_ms_p50": median(durations_ms("parallel.map_salvage")),
        "parallel.retries": attr_sum("parallel.map_salvage", "retries"),
        "parallel.respawns": attr_sum("parallel.map_salvage", "respawns"),
        "parallel.failures": attr_sum("parallel.map_salvage", "failures"),
        "islands.frames": per_op(len(by_name.get("islands.send", ())), n_ops),
        "islands.frame_bytes": per_op(
            sum(
                s.attrs.get("bytes", 0)
                for s in by_name.get("islands.encode", ())
                if "bytes" in s.attrs
            ),
            n_ops,
        ),
        "islands.encode_ms": per_op(total_ms("islands.encode"), n_ops),
        "islands.chain_round_ms": per_op(total_ms("islands.chain_round"), n_ops),
        # An island thread blocked in recv_frame is waiting on the lockstep
        # protocol (the coordinator and the other islands); parsing the
        # frame it then receives is counted under encode, not here.
        "islands.wait_ms": per_op(1000.0 * sum(own[s.id] for s in recv_islands), n_ops),
    }
    for name in PER_LAYER:
        out.setdefault(name, 0.0)
    for name, value in (extra or {}).items():
        if name not in PER_LAYER:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] = float(value)
    return out


def service_figures(
    tracer: Tracer, requests: list[dict[str, Any]]
) -> tuple[dict[str, float], dict[int, list[tuple[float, float]]]]:
    """Gateway per-layer figures and coverage links from the traced requests.

    ``requests`` holds, per traced request, its ``root`` span, the job
    ``seed`` and the response flags ``cached`` / ``coalesced``. A request
    that missed the cache is solved by the ``map_salvage`` call carrying
    its seed, which runs in an executor thread outside the request's span
    tree. From the end of its cache lookup until that call started, the
    request waited in the queue (its queue wait, for a request that
    queued its own solve); the interval from the lookup's end to the
    call's end is linked to the request for ``spans.coverage``.

    Returns ``(figures, links)``; ``links`` maps a root span id to the
    intervals linked to it.
    """
    spans = tracer.spans
    by_parent = children_of(spans)
    salvages: dict[int, list[Span]] = {}
    widths: list[int] = []
    for span in spans:
        if span.name == "parallel.map_salvage":
            widths.append(int(span.attrs.get("cells", 0)))
            for seed in span.attrs.get("seeds", ()):
                if seed is not None:
                    salvages.setdefault(int(seed), []).append(span)

    key_ms: list[float] = []
    waits: list[float] = []
    links: dict[int, list[tuple[float, float]]] = {}
    for req in requests:
        below = descendants(req["root"], by_parent)
        key_ms.append(1000.0 * sum(s.duration for s in below if s.name == "service.key"))
        if req["cached"]:
            continue
        lookups = [s for s in below if s.name == "runstore.get"]
        if not lookups:
            continue
        looked_up = lookups[-1].end
        solve = next(
            (s for s in salvages.get(int(req["seed"]), ()) if s.end >= looked_up), None
        )
        if solve is None:
            continue
        links[req["root"].id] = [(looked_up, solve.end)]
        if not req["coalesced"]:
            waits.append(1000.0 * (solve.start - looked_up))
    n = len(requests)
    figures = {
        "service.key_ms_p50": median(key_ms),
        "service.hit_frac": sum(1 for r in requests if r["cached"]) / n if n else 0.0,
        "service.coalesced_frac": sum(1 for r in requests if r["coalesced"]) / n if n else 0.0,
        "service.queue_wait_ms_p50": median(waits),
        "service.queue_wait_ms_tail": tail(waits)[0],
        "service.batch_width_mean": sum(widths) / len(widths) if widths else 0.0,
    }
    return figures, links
