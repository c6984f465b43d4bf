"""Pieces every workload shares: seeded corpus inputs, the independent
answer check, the timed loop, summary statistics and provenance.

Imported after ``run.py`` has put the checkout's ``src`` and ``scripts``
directories on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: relative tolerance of the answer check (cut values are sums of at
#: most a few thousand weights on the dyadic grid)
REL_TOL = 1e-9


@dataclass
class Outcome:
    """What one workload run produced, before it is printed."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    wrong: int = 0
    #: reasons the run is not correct besides wrong answers
    problems: List[str] = field(default_factory=list)
    #: per-run facts worth printing with the provenance
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.problems and self.attempted > 0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def corpus_graph(name: str, seed: int):
    """The corpus instance ``name`` as ``scripts/build_corpus.py`` builds
    it, but seeded by the workload seed instead of the corpus seed."""
    from build_corpus import corpus_spec

    specs = dict(corpus_spec(smoke=False)) | dict(corpus_spec(smoke=True))
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return specs[name](rng)


def write_and_load(graph, path: Path):
    """Round-trip ``graph`` through the corpus's binary format; returns
    the loaded graph and the sha256 of the file (the input's identity)."""
    from repro.graphs.io import read_graph_binary, write_graph_binary

    write_graph_binary(graph, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return read_graph_binary(path), digest


class Mirror:
    """The benchmark's own copy of a graph under updates.

    Applies each update with its own code, in the documented edge order
    (reweight in place, drop removed indices keeping survivor order,
    append additions), so the exact check never trusts the program's
    delta code.
    """

    def __init__(self, graph) -> None:
        self.n = int(graph.n)
        self.u = np.array(graph.u, dtype=np.int64)
        self.v = np.array(graph.v, dtype=np.int64)
        self.w = np.array(graph.w, dtype=np.float64)

    def graph(self):
        from repro.graphs.graph import Graph

        return Graph(self.n, self.u.copy(), self.v.copy(), self.w.copy())

    def apply(self, delta: Dict[str, object]) -> None:
        for idx, weight in dict(delta.get("reweight", {})).items():
            self.w[int(idx)] = float(weight)
        removed = delta.get("remove_edges")
        if removed:
            keep = np.ones(self.u.size, dtype=bool)
            keep[np.asarray(removed, dtype=np.int64)] = False
            self.u, self.v, self.w = self.u[keep], self.v[keep], self.w[keep]
        added = delta.get("add_edges")
        if added:
            arr = np.asarray(added, dtype=np.float64).reshape(-1, 3)
            self.u = np.concatenate([self.u, arr[:, 0].astype(np.int64)])
            self.v = np.concatenate([self.v, arr[:, 1].astype(np.int64)])
            self.w = np.concatenate([self.w, arr[:, 2]])


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for one consumer, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(2, np.uint64)[0] >> 1)


#: ``random_delta`` settings of every update the benchmark sends:
#: removals and weight decreases only.  An added edge heavier than 3x
#: the engine's stored cut underestimate, or a cut pushed past that
#: coverage edge, makes the engine rebuild (~20 s on ``planted-cut``,
#: against ~3 s per update).  On some seeds (underestimate 0.5) random
#: additions hit that trigger within a few updates and on others never,
#: so no bound could hold across seeds.  These updates never reach it,
#: so the workloads time the incremental path.
UPDATE_DELTAS = {"p_add": 0.0, "weight_scale": 0.5}


def nonempty_delta(graph, rng: np.random.Generator, **knobs) -> Dict[str, object]:
    """The next :func:`repro.engine.deltas.random_delta` batch (with the
    given knobs) that changes ``graph``; a no-op batch would be timed as
    a cache hit."""
    from repro.engine.deltas import random_delta

    while True:
        delta = random_delta(graph, rng, **knobs)
        if (delta.get("add_edges") or delta.get("remove_edges")
                or any(graph.w[i] != w for i, w in delta.get("reweight", {}).items())):
            return delta


# ---------------------------------------------------------------------------
# the answer check
# ---------------------------------------------------------------------------
def exact_value(graph) -> float:
    """The minimum cut by the arena's ``viecut-reduce`` solver
    (kernelization, then Stoer-Wagner), independent of the pipeline."""
    from repro.arena.solvers.reductions import viecut_minimum_cut

    return float(viecut_minimum_cut(graph).value)


def same_value(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


class ExactChecker:
    """Checks answers against :func:`exact_value`, memoised per graph
    content, and counts the wrong ones."""

    def __init__(self) -> None:
        self._exact: Dict[bytes, float] = {}
        self.checked = 0
        self.wrong = 0

    def exact(self, graph) -> float:
        h = hashlib.sha256(str(graph.n).encode())
        for col in (graph.u, graph.v, graph.w):
            h.update(np.ascontiguousarray(col).tobytes())
        key = h.digest()
        if key not in self._exact:
            self._exact[key] = exact_value(graph)
        return self._exact[key]

    def check(self, graph, value: float, side: Optional[np.ndarray] = None) -> bool:
        """``value`` is the exact minimum cut and, when given, ``side``
        induces it."""
        ok = same_value(value, self.exact(graph)) and (
            side is None or same_value(graph.cut_value(side), value))
        self.checked += 1
        self.wrong += not ok
        return ok


# ---------------------------------------------------------------------------
# timing and summaries
# ---------------------------------------------------------------------------
def timed_loop(seconds: float, op: Callable[[], Optional[float]]) -> Tuple[List[float], float]:
    """Run ``op`` back to back; it returns the wall time of its timed
    part, or None when the stream cannot go on.  Another op starts only
    while the median op so far would still finish inside ``seconds``;
    at least one op runs.  Returns the per-op times and the loop's wall
    time."""
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        dt = op()
        if dt is None:
            break
        durations.append(dt)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    return durations, time.perf_counter() - start


def repeated_setup(reps: int, setup: Callable[[], object],
                   discard: Optional[Callable[[object], None]] = None,
                   ) -> Tuple[float, object]:
    """Run ``setup`` ``reps`` times and return the median wall time and
    the last result.  Earlier results go to ``discard`` (untimed)."""
    times = []
    result = None
    for rep in range(reps):
        if rep and discard is not None:
            discard(result)
        result = None
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def effective_cpus() -> float:
    """CPUs this process may use: the affinity mask capped by the cgroup
    CPU quota."""
    avail = float(len(os.sched_getaffinity(0)))
    try:
        parts = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if parts and parts[0] != "max":
            avail = min(avail, float(parts[0]) / float(parts[1]))
    except (OSError, IndexError, ValueError, ZeroDivisionError):
        pass
    return avail


def tree_digest(base: Path, pattern: str) -> str:
    """sha256 over the files under ``base`` matching ``pattern``; it
    identifies the code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(base.rglob(pattern)):
        h.update(str(path.relative_to(base)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(root: Path) -> Dict[str, object]:
    from repro.kernels import kernels_mode
    from repro.pram.executor import executor_backend

    return {
        "git_sha": git_sha(root),
        "src_sha256": tree_digest(root / "src", "*.py"),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent, "*.py"),
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "REPRO_EXECUTOR": os.environ.get("REPRO_EXECUTOR"),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
        "executor_backend": executor_backend(),
        "kernels_mode": kernels_mode(),
    }
