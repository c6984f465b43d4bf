"""The ``serve-durable`` workload: a durable daemon under closed-loop load.

The untraced run starts ``python -m repro serve`` as its own process
with a fresh ``--state-dir`` and ``--fsync always``.  This process is
the load generator: it holds :data:`CONNECTIONS` connections, each on
its own thread and each in a closed loop (the next request goes out
only after the reply arrives).  Each connection registers its own
tenant and seeded small graphs and sends a fixed cycle of warm
``min_cut`` reads, non-empty ``update`` writes (logged to the WAL) and
``min_cut_batch`` fan-outs, round-robin over its graphs.  No request
carries a short deadline.

The traffic is an assumption, not a recording: no caller in this
repository talks to the daemon (the apps call ``CutEngine`` in
process), so neither the closed loop nor the op mix (:data:`OP_CYCLE`)
is taken from one.  The mix was chosen so that the latency percentiles
are steady across seeds; read ``serve-durable`` figures as this
synthetic load, not as measured real traffic.

Every answer is checked after the run against the exact minimum cut of
the benchmark's own mirror of the graph version it answered for.

The traced run drives the same request stream, with a fixed request
count, against an in-process daemon so that the durability and engine
calls can be wrapped and timed.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import UPDATE_DELTAS, Mirror, derive_seed, nonempty_delta
from repro.errors import ReproError

#: closed-loop connections held by the load generator
CONNECTIONS = 2
#: each connection's request cycle: 60% min_cut, 35% update, 5% batch,
#: in a fixed order so that every seed sends the same mix.  An assumed
#: mix, chosen for steadiness, not taken from any caller: at a 10% batch
#: share, p90 would sit on the edge between batch latencies and the rest.
#: (``scripts/bench_service.py`` uses a different, shedding mix.)
OP_CYCLE = ("min_cut", "update", "min_cut") * 6 + ("update", "min_cut_batch")
#: vertex counts of each connection's graphs (m = 4n); fixed, so that a
#: seed changes the edges and weights but not the sizes, and many, so
#: that latency percentiles do not sit on the edge of one size's mode
GRAPH_SIZES = tuple(range(24, 41, 2))
#: seeds per min_cut_batch request
BATCH_SEEDS = 2
#: retry_after answers honoured before a request counts as failed
MAX_RETRIES = 5
#: socket timeout; a request unanswered this long counts as failed
CLIENT_TIMEOUT_S = 60.0
#: daemon flags besides the state directory (recorded in provenance)
DAEMON_FLAGS = ("--host", "127.0.0.1", "--port", "0", "--fsync", "always")


def make_graphs(seed: int, conn: int, count: int) -> List[object]:
    """Connection ``conn``'s own small graphs, the first ``count`` sizes
    of :data:`GRAPH_SIZES`, built with the repo's generator from the
    workload seed."""
    from repro.graphs.generators import random_connected_graph

    rng = np.random.default_rng([seed, 30, conn])
    return [random_connected_graph(n, 4 * n, rng=int(rng.integers(2**31)),
                                   max_weight=8)
            for n in GRAPH_SIZES[:count]]


# ---------------------------------------------------------------------------
# daemons
# ---------------------------------------------------------------------------
class ProcessDaemon:
    """``python -m repro serve`` as a child process."""

    def __init__(self, root: Path, state_dir: Path, log: Path, seed: int) -> None:
        self.flags = [*DAEMON_FLAGS, "--seed", str(seed),
                      "--state-dir", str(state_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.log = log
        self.port: Optional[int] = None
        self._out = open(log, "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.flags],
                cwd=root, env=env, stdout=self._out, stderr=subprocess.STDOUT,
            )
        except OSError:
            self._out.close()
            raise
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_port(self, timeout: float) -> int:
        marker = b"listening on "
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_bytes()
            if marker in text:
                line = text.split(marker, 1)[1].split(b"\n", 1)[0]
                return int(line.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            "daemon did not start: " + self.log.read_text(errors="replace")[-2000:])

    def stop(self) -> None:
        """Ask for a clean shutdown (final snapshot), then make sure the
        process is gone."""
        if self.proc.poll() is None:
            if self.port is None:
                self.proc.terminate()
            else:
                from repro.serve import ServiceClient

                try:
                    with ServiceClient("127.0.0.1", self.port, timeout=30.0) as client:
                        client.request({"op": "shutdown"})
                except (OSError, ReproError):
                    self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()


class InProcDaemon:
    """The same daemon on a thread of this process (traced run)."""

    def __init__(self, state_dir: Path, seed: int, registry) -> None:
        from repro.serve import ServerConfig, ThreadedTCPServer

        config = ServerConfig(host="127.0.0.1", port=0, seed=seed,
                              state_dir=str(state_dir), fsync="always")
        self.server = ThreadedTCPServer(config, registry=registry).start()
        self.port = self.server.port

    def stop(self) -> None:
        self.server.stop()


def register(port: int, graphs: Dict[int, List[object]], seed: int) -> None:
    """One tenant per connection, its graphs registered warm."""
    from repro.serve import ServiceClient

    with ServiceClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S) as client:
        for conn, owned in graphs.items():
            client.call({"op": "register_tenant", "tenant": f"c{conn}"})
            for gi, g in enumerate(owned):
                client.call({
                    "op": "register_graph", "tenant": f"c{conn}", "graph": f"g{gi}",
                    "n": g.n, "edges": [[int(a), int(b), float(w)]
                                        for a, b, w in g.edges()],
                    "seed": derive_seed(seed, 40 + conn, gi), "warm": True,
                })


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    op: str
    latency_s: float
    ok: bool


@dataclass
class Traffic:
    """What the connections saw: one sample per request, and every
    answer as ``(graph version, values, side indices or None)``."""

    samples: List[Sample] = field(default_factory=list)
    answers: List[Tuple[object, List[float], Optional[List[int]]]] = field(
        default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: load-generator faults; they make the run incorrect
    crashes: List[str] = field(default_factory=list)
    wall_s: float = 0.0


def _send(client, request: dict) -> Optional[dict]:
    """One request, honouring ``retry_after``; None when retries ran out."""
    for _ in range(MAX_RETRIES + 1):
        resp = client.request(dict(request))
        if resp.get("type") != "retry_after":
            return resp
        time.sleep(resp.get("retry_after_ms", 100) / 1000.0)
    return None


def _connection(port: int, conn: int, graphs: List[object], seed: int,
                deadline: Optional[float], count: Optional[int],
                out: Traffic, lock: threading.Lock) -> None:
    from repro.serve import ServiceClient

    rng = np.random.default_rng([seed, 50, conn])
    mirrors = [Mirror(g) for g in graphs]
    versions = list(graphs)
    live = list(range(len(graphs)))
    sent = 0
    with ServiceClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S) as client:
        while live:
            if count is not None and sent >= count:
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return
            # graphs round-robin, ops in cycle order; 9 graphs and a
            # 20-op cycle are coprime, so every graph sees every op
            gi = live[sent % len(live)]
            op = OP_CYCLE[sent % len(OP_CYCLE)]
            base = {"tenant": f"c{conn}", "graph": f"g{gi}"}
            delta = None
            if op == "min_cut":
                request = {"op": op, "return_side": True, **base}
            elif op == "update":
                delta = nonempty_delta(versions[gi], rng, **UPDATE_DELTAS)
                request = {"op": op, "return_side": True, **base,
                           **_wire_delta(delta)}
            else:
                seeds = [int(s) for s in rng.integers(2**31, size=BATCH_SEEDS)]
                request = {"op": op, "seeds": seeds, **base}
            sent += 1
            t0 = time.perf_counter()
            try:
                resp = _send(client, request)
            except (OSError, ReproError) as exc:
                # unanswered (timeout, reset, bad frame): this
                # connection cannot continue
                with lock:
                    out.samples.append(Sample(request["op"],
                                              time.perf_counter() - t0, False))
                    out.errors.append(f"c{conn}: {type(exc).__name__}: {exc}")
                return
            latency = time.perf_counter() - t0
            ok = resp is not None and resp.get("ok") is True
            if ok and delta is not None:
                mirrors[gi].apply(delta)
                versions[gi] = mirrors[gi].graph()
            with lock:
                out.samples.append(Sample(request["op"], latency, ok))
                if ok:
                    values = resp.get("values", [resp.get("value")])
                    out.answers.append((versions[gi], values, resp.get("side")))
                else:
                    out.errors.append(f"c{conn} {request['op']}: {resp}")
            if not ok and delta is not None:
                # the daemon's copy may or may not carry this update;
                # stop using the graph rather than guess
                live.remove(gi)


def _wire_delta(delta: dict) -> dict:
    wire = {}
    if "add_edges" in delta:
        wire["add_edges"] = [[int(a), int(b), float(w)] for a, b, w in delta["add_edges"]]
    if "remove_edges" in delta:
        wire["remove_edges"] = [int(i) for i in delta["remove_edges"]]
    if "reweight" in delta:
        wire["reweight"] = {str(int(k)): float(w) for k, w in delta["reweight"].items()}
    return wire


def drive(port: int, graphs: Dict[int, List[object]], seed: int, *,
          seconds: Optional[float] = None, count: Optional[int] = None) -> Traffic:
    """Run every connection until ``seconds`` pass or each has sent
    ``count`` requests."""
    out = Traffic()
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    threads = [
        threading.Thread(target=_guarded, name=f"perfbench-c{conn}",
                         args=(port, conn, owned, seed, deadline, count, out, lock))
        for conn, owned in graphs.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out.wall_s = time.perf_counter() - start
    return out


def _guarded(*args) -> None:
    out, lock = args[-2], args[-1]
    try:
        _connection(*args)
    except Exception as exc:  # noqa: BLE001 - reported as an incorrect run
        with lock:
            out.crashes.append(f"load generator crashed: {type(exc).__name__}: {exc}")


def side_mask(n: int, indices: Optional[List[int]]) -> Optional[np.ndarray]:
    if indices is None:
        return None
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = True
    return mask


@contextlib.contextmanager
def engine_ledgers():
    """Give every :class:`repro.CutEngine` built inside the block its own
    :class:`repro.Ledger` (the daemon builds engines without one), and
    yield the list of them."""
    from repro.engine.service import CutEngine
    from repro.pram.ledger import Ledger

    ledgers: List[Ledger] = []
    original = CutEngine.__init__

    def init(self, graph, **kwargs):
        if "ledger" not in kwargs:
            kwargs["ledger"] = Ledger()
            ledgers.append(kwargs["ledger"])
        original(self, graph, **kwargs)

    CutEngine.__init__ = init
    try:
        yield ledgers
    finally:
        CutEngine.__init__ = original


def locked_registry():
    """A counter registry safe to share between the daemon's threads, so
    traced counts repeat exactly."""
    from repro.obs import CounterRegistry

    class LockedRegistry(CounterRegistry):
        __slots__ = ("_lock",)

        def __init__(self) -> None:
            super().__init__()
            self._lock = threading.Lock()

        def add(self, name: str, value: float = 1.0) -> None:
            with self._lock:
                super().add(name, value)

    return LockedRegistry()
