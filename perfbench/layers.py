"""Per-layer timing for the traced benchmark run.

The program is not edited to be measured: :class:`LayerTracer` wraps the
public functions named in :data:`LAYERS` at run time, from outside, and
restores them afterwards.  A wrapper records, per layer,

* calls and self time (the call's wall time minus the part spent in
  nested wrapped calls, on the same thread), so the self times of all
  layers partition the time spent inside any of them;
* inclusive time of outermost calls (a layer nested in itself, like the
  exact pipeline called again from the approximation, counts once);
* the inclusive ledger work, when the call is passed a real ``ledger=``;
* an optional per-call item count and per-result outcome count;
* which layers it was called under (``nested``), so "inner solves of
  the approximation" can be counted without editing the approximation.

Each thread keeps its own call stack, so the daemon's worker threads can
be traced side by side; totals merge under one lock.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the name its numbers go under."""

    name: str
    module: str
    attr: str  # "function" or "Class.method"
    #: items handled by one call, from its arguments
    size: Optional[Callable[[tuple, dict], int]] = None
    #: a count read off one call's result
    outcome: Optional[Callable[[Any], float]] = None


def _query_many_size(args: tuple, kwargs: dict) -> int:
    return len(args[1])


def _parallel_map_size(args: tuple, kwargs: dict) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs["items"])


def _ran_exact_check(report: Any) -> float:
    return float(any(name == "stoer-wagner" for name, _ in report.checks))


#: every layer the traced run times, outermost first
LAYERS: Tuple[Layer, ...] = (
    Layer("graphs.load", "repro.graphs.io", "read_graph_binary"),
    Layer("core.min_cut", "repro.core.mincut", "minimum_cut"),
    Layer("engine.min_cut", "repro.engine.service", "CutEngine.min_cut"),
    Layer("engine.min_cut_batch", "repro.engine.service", "CutEngine.min_cut_batch"),
    Layer("engine.update", "repro.engine.service", "CutEngine.update"),
    Layer("approx", "repro.approx.approximate", "approximate_minimum_cut"),
    Layer("packing.skeleton", "repro.packing.karger", "build_cut_skeleton"),
    Layer("packing.pack", "repro.packing.karger", "pack_skeleton"),
    Layer("packing.select", "repro.packing.karger", "select_trees", outcome=len),
    Layer("primitives.mst", "repro.primitives.mst", "minimum_spanning_forest"),
    Layer("tworespect", "repro.tworespect.algorithm", "two_respecting_min_cut"),
    Layer("tworespect.oracle_build", "repro.rangesearch.cutqueries",
          "CutOracle.__init__"),
    Layer("tworespect.single_path", "repro.tworespect.single_path",
          "single_path_minimum"),
    Layer("tworespect.terminals", "repro.tworespect.path_pairs",
          "find_interest_terminals"),
    Layer("tworespect.path_pairs", "repro.tworespect.path_pairs",
          "path_pair_minimum"),
    Layer("trees.centroid", "repro.trees.centroid", "centroid_decomposition"),
    Layer("kernels.query_many", "repro.kernels.flat2d",
          "FlatRangeTree2D.query_many", size=_query_many_size),
    Layer("verify", "repro.resilience.verify", "verify_cut",
          outcome=_ran_exact_check),
    Layer("solvers.stoer_wagner", "repro.arena.solvers.stoer_wagner",
          "stoer_wagner"),
    Layer("executor.map", "repro.pram.executor", "parallel_map",
          size=_parallel_map_size),
    Layer("durability.log_update", "repro.durability.state",
          "DurableState.log_update"),
    Layer("durability.snapshot", "repro.durability.state", "DurableState.snapshot"),
)

#: modules that import layer functions by name; loaded before wrapping
#: so that every such alias is found and rebound too
_CONSUMERS = (
    "repro.core.mincut",
    "repro.engine.service",
    "repro.engine.stages",
    "repro.approx.approximate",
    "repro.tworespect.algorithm",
    "repro.resilience.verify",
    "repro.arena.solvers.reductions",
    "repro.serve.server",
    "repro.durability.state",
)


class LayerStats:
    """Totals for one layer."""

    __slots__ = ("calls", "self_s", "inclusive_s", "work", "items", "small",
                 "outcome")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.work = 0.0
        self.items = 0
        self.small = 0
        self.outcome = 0.0


class LayerTracer:
    """Wraps :data:`LAYERS` while active; see the module docstring.

    ``small_cutoff`` maps a layer name to a callable giving the item
    count at or under which one call counts as small (read when the
    tracer is installed, so it follows the program's own constant).
    """

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS,
                 small_cutoff: Optional[Dict[str, Callable[[], int]]] = None):
        self.layers = layers
        self.stats: Dict[str, LayerStats] = {lay.name: LayerStats() for lay in layers}
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)
        self._small_cutoff_fns = small_cutoff or {}
        self._cutoffs: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- install / remove ---------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for mod in _CONSUMERS:
            importlib.import_module(mod)
        self._cutoffs = {k: int(fn()) for k, fn in self._small_cutoff_fns.items()}
        for layer in self.layers:
            module = importlib.import_module(layer.module)
            owner_name, _, attr = layer.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original)
            self._patch(owner, attr, wrapper)
            if not owner_name:
                # `from module import function` made copies of the name
                for other in list(sys.modules.values()):
                    if (other is module or other is None
                            or not getattr(other, "__name__", "").startswith("repro")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- the wrapper --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        from repro.pram.ledger import Ledger, NULL_LEDGER

        name = layer.name
        stats = self.stats[name]
        cutoff = self._cutoffs.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            ancestors = {frame[0] for frame in stack}
            outermost = name not in ancestors
            ledger = kwargs.get("ledger")
            if not isinstance(ledger, Ledger) or ledger is NULL_LEDGER:
                ledger = None
            work0 = ledger.work if ledger is not None else 0.0
            frame = [name, 0.0]  # [layer, time spent in wrapped children]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                items = layer.size(args, kwargs) if layer.size is not None else 0
                with self._lock:
                    stats.calls += 1
                    stats.self_s += dt - frame[1]
                    stats.items += items
                    if cutoff is not None and 0 < items <= cutoff:
                        stats.small += 1
                    if outermost:
                        stats.inclusive_s += dt
                        if ledger is not None:
                            stats.work += ledger.work - work0
                    if layer.outcome is not None and result is not None:
                        stats.outcome += float(layer.outcome(result))
                    for ancestor in ancestors:
                        self.nested[(ancestor, name)] += 1

        traced.__wrapped__ = fn
        return traced

    # -- summaries ----------------------------------------------------------
    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())
