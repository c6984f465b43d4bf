"""The benchmark's three workloads.

``cold-dense``
    One-shot :func:`repro.minimum_cut` on the corpus's
    ``nonsparse-random`` graph (n = 300, m ~ 16.2k, the paper's
    non-sparse regime).  An op is one cold solve.
``update-stream``
    A :class:`repro.CutEngine` warmed on the corpus's ``planted-cut``
    graph (the warm-up is set-up), then a seeded stream of
    :func:`repro.engine.deltas.random_delta` batches through
    ``CutEngine.update`` with verification on.  An op is one update.
``serve-durable``
    The ``python -m repro serve`` daemon with a durable state directory
    under closed-loop load (see :mod:`serve_load`).  An op is one
    request.

Untraced runs measure the end-to-end metrics for ``--seconds``.  Traced
runs do a fixed amount of the same work twice, once plain and once with
:class:`layers.LayerTracer` and the program's counters on, and report
the per-layer table; fixed work is what lets their counts repeat
exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro.errors import ReproError
from repro.graphs import io as graph_io
from repro.kernels import flat2d
from repro.obs import CounterRegistry, counting_scope
from repro.pram.ledger import NULL_LEDGER, Ledger

import serve_load
from common import (
    UPDATE_DELTAS,
    ExactChecker,
    Mirror,
    Outcome,
    corpus_graph,
    derive_seed,
    nonempty_delta,
    own_peak_rss_mb,
    percentile,
    proc_peak_rss_mb,
    repeated_setup,
    timed_loop,
    write_and_load,
)
from layers import LayerTracer
from metrics import per_layer_table

#: set-up repetitions per untraced run; ``setup_s`` is their median.
#: A cold-dense set-up takes milliseconds, so it repeats more; an
#: update-stream warm-up costs 0.8-1.5 s depending on the engine seed,
#: so each repetition warms with its own derived seed.
SETUP_REPS = {"cold-dense": 21, "update-stream": 5, "serve-durable": 3}


def setup_reps(ctx: "Ctx", workload: str) -> int:
    return 1 if ctx.trace else SETUP_REPS[workload]


@dataclass(frozen=True)
class Size:
    """Input sizes: ``full`` is the benchmark, ``smoke`` is for tests."""

    cold_graph: str
    update_graph: str
    #: small graphs each serve connection owns
    serve_graphs: int
    #: fixed work of a traced run
    trace_updates: int
    trace_requests: int  # per connection


SIZES = {
    "full": Size("nonsparse-random", "planted-cut", 9, 4, 24),
    "smoke": Size("dense-small", "planted-small", 1, 2, 4),
}


@dataclass(frozen=True)
class Ctx:
    root: Path  # the checkout
    tmp: Path  # this run's scratch directory inside the checkout
    seed: int
    seconds: float
    trace: bool
    size: Size


def run(workload: str, ctx: Ctx) -> Outcome:
    return {
        "cold-dense": cold_dense,
        "update-stream": update_stream,
        "serve-durable": serve_durable,
    }[workload](ctx)


def end_to_end(setup_s: float, rss_mb: float, durations: List[float],
               window_s: float) -> Dict[str, float]:
    if not durations:
        # no op completed: NaN, which run.py reports as a problem, rather
        # than latencies of 0 that would read as a perfect run
        nan = float("nan")
        return {"setup_s": setup_s, "peak_rss_mb": rss_mb, "op_p50_ms": nan,
                "op_p90_ms": nan, "ops_per_s": nan}
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_p90_ms": 1e3 * percentile(durations, 90),
        "ops_per_s": len(durations) / window_s,
    }


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------
@dataclass
class Pass:
    """One pass of a traced run's fixed work."""

    attempted: int
    failed: int = 0
    #: ``(graph, value, side mask or None)`` to check afterwards
    answers: List[tuple] = field(default_factory=list)
    ledger_work: float = 0.0
    #: program counters, when the pass collects its own
    counters: Optional[Dict[str, float]] = None
    #: the time the layers' self times are compared with, when it is
    #: not the pass's wall time (concurrent requests)
    caller_s: Optional[float] = None
    data: object = None
    problems: List[str] = field(default_factory=list)


def traced_outcome(
    sequence: Callable[[bool], Pass],
    info: Dict[str, object],
    extra: Optional[Callable[[LayerTracer, Pass], Dict[str, float]]] = None,
) -> Outcome:
    """Run ``sequence`` plain, then traced; check both passes' answers
    and build the per-layer table."""
    t0 = time.perf_counter()
    plain = sequence(False)
    plain_s = time.perf_counter() - t0
    tracer = LayerTracer(
        small_cutoff={"kernels.query_many": lambda: flat2d._SCALAR_BATCH_CUTOFF})
    registry = CounterRegistry()
    with tracer, counting_scope(registry):
        t0 = time.perf_counter()
        traced = sequence(True)
        traced_s = time.perf_counter() - t0
    checker = ExactChecker()
    for graph, value, side in plain.answers + traced.answers:
        checker.check(graph, value, side)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    table = per_layer_table(
        tracer,
        traced.counters if traced.counters is not None else registry.snapshot(),
        layer_wall_s=traced.caller_s if traced.caller_s is not None else traced_s,
        traced_wall_s=traced_s,
        untraced_wall_s=plain_s,
        ledger_work=traced.ledger_work,
        attempted=attempted,
        failed=failed,
        extra=extra(tracer, traced) if extra is not None else None,
    )
    return Outcome(table, attempted, failed, checker.wrong,
                   problems=plain.problems + traced.problems, info=info)


# ---------------------------------------------------------------------------
# cold-dense
# ---------------------------------------------------------------------------
def cold_dense(ctx: Ctx) -> Outcome:
    name = ctx.size.cold_graph
    path = ctx.tmp / f"{name}.rpg"
    solve_seed = derive_seed(ctx.seed, 1)

    def setup():
        return write_and_load(corpus_graph(name, ctx.seed), path)

    setup_s, (graph, digest) = repeated_setup(setup_reps(ctx, "cold-dense"), setup)
    info: Dict[str, object] = {"inputs": {name: digest}, "n": graph.n,
                               "m": graph.m, "solve_seed": solve_seed}

    def solve(g, ledger=NULL_LEDGER):
        return repro.minimum_cut(g, rng=np.random.default_rng(solve_seed),
                                 ledger=ledger)

    if ctx.trace:
        def sequence(traced: bool) -> Pass:
            ledger = Ledger() if traced else NULL_LEDGER
            g = graph_io.read_graph_binary(path)  # by module: tracing wraps it
            res = solve(g, ledger)
            return Pass(1, answers=[(g, res.value, res.side)],
                        ledger_work=ledger.work)

        return traced_outcome(sequence, info)

    results = []
    errors: List[str] = []

    def op() -> Optional[float]:
        t0 = time.perf_counter()
        try:
            res = solve(graph)
        except ReproError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        results.append(res)
        return dt

    durations, window = timed_loop(ctx.seconds, op)
    rss_mb = own_peak_rss_mb()  # before the checker's own solves
    checker = ExactChecker()
    for res in results:
        checker.check(graph, res.value, res.side)
    info["errors"] = errors
    info["op_samples"] = len(durations)
    return Outcome(end_to_end(setup_s, rss_mb, durations, window),
                   len(results) + len(errors), len(errors), checker.wrong, info=info)


# ---------------------------------------------------------------------------
# update-stream
# ---------------------------------------------------------------------------
class UpdateStream:
    """Seeded batches that change the graph, applied through
    ``CutEngine.update`` (verification on) and mirrored by the benchmark
    for the exact check."""

    def __init__(self, engine, seed: int) -> None:
        self.engine = engine
        self.mirror = Mirror(engine.graph)
        self.version = self.mirror.graph()
        self.rng = np.random.default_rng(derive_seed(seed, 3))
        self.answers: List[tuple] = []
        self.errors: List[str] = []

    def step(self) -> Optional[float]:
        delta = nonempty_delta(self.version, self.rng, **UPDATE_DELTAS)
        t0 = time.perf_counter()
        try:
            upd = self.engine.update(**delta)
        except ReproError as exc:
            # the engine may hold the mutation; the mirror cannot follow
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.mirror.apply(delta)
        self.version = self.mirror.graph()
        self.answers.append((self.version, upd.value, upd.result.side))
        return dt

    @property
    def attempted(self) -> int:
        return len(self.answers) + len(self.errors)


def update_stream(ctx: Ctx) -> Outcome:
    name = ctx.size.update_graph
    path = ctx.tmp / f"{name}.rpg"
    reps = setup_reps(ctx, "update-stream")
    engine_seeds = [derive_seed(ctx.seed, 2, rep) for rep in range(reps)]
    next_seed = iter(engine_seeds)
    digests = {}

    def setup():
        graph, digests[name] = write_and_load(corpus_graph(name, ctx.seed), path)
        return repro.CutEngine(graph, seed=next(next_seed)).warm()

    setup_s, engine = repeated_setup(reps, setup)
    engine_seed = engine_seeds[-1]
    info: Dict[str, object] = {"inputs": digests, "n": engine.graph.n,
                               "m": engine.graph.m, "engine_seed": engine_seed}

    if ctx.trace:
        def sequence(traced: bool) -> Pass:
            ledger = Ledger() if traced else NULL_LEDGER
            eng = repro.CutEngine(graph_io.read_graph_binary(path), seed=engine_seed,
                                  ledger=ledger).warm()
            stream = UpdateStream(eng, ctx.seed)
            for _ in range(ctx.size.trace_updates):
                if stream.step() is None:
                    break
            return Pass(stream.attempted, len(stream.errors), stream.answers,
                        ledger_work=ledger.work)

        return traced_outcome(sequence, info)

    stream = UpdateStream(engine, ctx.seed)
    durations, window = timed_loop(ctx.seconds, stream.step)
    rss_mb = own_peak_rss_mb()  # before the checker's own solves
    checker = ExactChecker()
    for graph, value, side in stream.answers:
        checker.check(graph, value, side)
    info["errors"] = stream.errors
    info["op_samples"] = len(durations)
    info["epoch"] = engine.epoch
    return Outcome(end_to_end(setup_s, rss_mb, durations, window),
                   stream.attempted, len(stream.errors), checker.wrong, info=info)


# ---------------------------------------------------------------------------
# serve-durable
# ---------------------------------------------------------------------------
def _serve_answers(traffic: "serve_load.Traffic") -> List[tuple]:
    out = []
    for graph, values, side in traffic.answers:
        mask = serve_load.side_mask(graph.n, side)
        for i, value in enumerate(values):
            out.append((graph, float(value), mask if i == 0 else None))
    return out


def _serve_extra(tracer: LayerTracer, traced: Pass) -> Dict[str, float]:
    traffic = traced.data
    extra = {}
    for op in ("min_cut", "update", "min_cut_batch"):
        lat = [s.latency_s for s in traffic.samples if s.ok and s.op == op]
        extra[f"serve.{op}_p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    engine_s = sum(tracer.stats[layer].inclusive_s for layer in
                   ("engine.min_cut", "engine.min_cut_batch", "engine.update"))
    client_s = sum(s.latency_s for s in traffic.samples)
    n = len(traffic.samples)
    extra["serve.queue_wait_ms"] = 1e3 * (client_s - engine_s) / n if n else 0.0
    return extra


def serve_durable(ctx: Ctx) -> Outcome:
    graphs = {conn: serve_load.make_graphs(ctx.seed, conn, ctx.size.serve_graphs)
              for conn in range(serve_load.CONNECTIONS)}
    info: Dict[str, object] = {
        "daemon_flags": [*serve_load.DAEMON_FLAGS, "--seed", str(ctx.seed),
                         "--state-dir", "<fresh per set-up>"],
        "connections": serve_load.CONNECTIONS,
        "graphs": {f"c{c}": [[g.n, g.m] for g in gs] for c, gs in graphs.items()},
    }

    if ctx.trace:
        def sequence(traced: bool) -> Pass:
            registry = serve_load.locked_registry() if traced else None
            ledgers = serve_load.engine_ledgers() if traced else contextlib.nullcontext([])
            with ledgers as engine_ledgers:
                t0 = time.perf_counter()
                daemon = serve_load.InProcDaemon(
                    ctx.tmp / f"state-trace-{int(traced)}", ctx.seed, registry)
                try:
                    serve_load.register(daemon.port, graphs, ctx.seed)
                    register_s = time.perf_counter() - t0
                    traffic = serve_load.drive(daemon.port, graphs, ctx.seed,
                                               count=ctx.size.trace_requests)
                finally:
                    daemon.stop()
            info.setdefault("errors", []).extend(traffic.errors)
            return Pass(
                len(traffic.samples), sum(not s.ok for s in traffic.samples),
                _serve_answers(traffic),
                ledger_work=sum(led.work for led in engine_ledgers),
                counters=registry.snapshot() if traced else None,
                caller_s=register_s + sum(s.latency_s for s in traffic.samples),
                data=traffic,
                problems=traffic.crashes,
            )

        return traced_outcome(sequence, info, _serve_extra)

    counter = itertools.count()

    def setup():
        k = next(counter)
        daemon = serve_load.ProcessDaemon(
            ctx.root, ctx.tmp / f"state-{k}", ctx.tmp / f"daemon-{k}.log", ctx.seed)
        try:
            serve_load.register(daemon.port, graphs, ctx.seed)
        except BaseException:
            daemon.stop()
            raise
        return daemon

    setup_s, daemon = repeated_setup(setup_reps(ctx, "serve-durable"), setup,
                                     discard=lambda d: d.stop())
    try:
        traffic = serve_load.drive(daemon.port, graphs, ctx.seed, seconds=ctx.seconds)
        rss_mb = proc_peak_rss_mb(daemon.pid)
    finally:
        daemon.stop()
    checker = ExactChecker()
    for graph, value, side in _serve_answers(traffic):
        checker.check(graph, value, side)
    ok = [s.latency_s for s in traffic.samples if s.ok]
    info["errors"] = traffic.errors
    info["requests"] = {op: sum(s.op == op for s in traffic.samples)
                        for op in ("min_cut", "update", "min_cut_batch")}
    info["op_samples"] = len(ok)
    return Outcome(end_to_end(setup_s, rss_mb, ok, traffic.wall_s),
                   len(traffic.samples), len(traffic.samples) - len(ok),
                   checker.wrong, problems=traffic.crashes, info=info)
