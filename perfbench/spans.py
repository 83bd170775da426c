"""Layer spans for the traced run, installed from the benchmark's side.

The tracer wraps the public netadmm functions and methods that the
engine calls and keeps, per layer, its self time (span minus the time
covered by nested spans) and its call count. Spans are folded into
these totals as they close, so memory stays flat however long a run is.
A layer whose function no longer exists is listed in ``absent`` and
reads 0.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

#: per-layer metrics (name, unit), in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("ppca.m_step.self_s", "s"),
    ("ppca.m_step.calls", "count"),
    ("ppca.e_step.self_s", "s"),
    ("ppca.nll.self_s", "s"),
    ("ppca.nll.calls", "count"),
    ("ppca.objective_neighbor.self_s", "s"),
    ("ppca.objective_neighbor.calls", "count"),
    ("ppca.objective_neighbor.discarded", "count"),
    ("ppca.unpack.self_s", "s"),
    ("ppca.unpack.calls", "count"),
    ("ppca.multiplier_step.self_s", "s"),
    ("penalty.update.self_s", "s"),
    ("penalty.query.self_s", "s"),
    ("penalty.query.calls", "count"),
    ("engine.run.self_s", "s"),
    ("data.prepare.self_s", "s"),
)

_SCHEDULER_QUERIES = ("eta", "edge_etas", "node_eta", "all_etas", "exhausted_edges")
_DATA_CALLS = (
    "generate_synthetic",
    "partition_even",
    "generate_rigid_measurements",
    "load_measurements",
    "sfm_node_shards",
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.absent: set[str] = set()
        #: neighbor-objective evaluations per model since the last iteration hook
        self.neighbor_evals: Counter[int] = Counter()
        self.discarded = 0
        self._children: list[float] = []

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[layer] += elapsed - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed

        return traced

    def patch(self, layer: str, owner, name: str, static: bool = False) -> None:
        fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if fn is None:
            self.absent.add(layer)
            return
        if static:
            setattr(owner, name, staticmethod(self.wrap(layer, fn.__func__)))
        else:
            setattr(owner, name, self.wrap(layer, fn))

    def install(self, nd) -> None:
        """Wrap the layer boundaries of the imported netadmm package ``nd``."""
        self.patch("engine.run", nd.engine, "run")
        for fn, layer in (
            ("e_step", "ppca.e_step"),
            ("consensus_m_step", "ppca.m_step"),
            ("negative_log_likelihood", "ppca.nll"),
        ):
            self.patch(layer, nd.ppca, fn)
        self.patch("ppca.unpack", nd.ppca.PpcaParams, "from_vector", static=True)
        self.patch("ppca.multiplier_step", nd.ppca.DppcaModel, "multiplier_step")
        self._patch_neighbor_objective(nd.ppca.DppcaModel)
        for cls in _subclasses(nd.penalty.PenaltyScheduler):
            if "update" in cls.__dict__:
                self.patch("penalty.update", cls, "update")
            for name in _SCHEDULER_QUERIES:
                if name in cls.__dict__:
                    self.patch("penalty.query", cls, name)
        for name in _DATA_CALLS:
            self.patch("data.prepare", nd.data, name)

    def _patch_neighbor_objective(self, model_cls) -> None:
        objective = model_cls.__dict__.get("objective")
        if objective is None:
            self.absent.add("ppca.objective_neighbor")
            return
        at_neighbor = self.wrap("ppca.objective_neighbor", objective)

        def traced_objective(model, params=None):
            if params is None:
                return objective(model)
            self.neighbor_evals[id(model)] += 1
            return at_neighbor(model, params)

        model_cls.objective = traced_objective

    def snapshot(self) -> dict[str, float]:
        """Current totals of every layer metric; absent layers read 0."""
        values = {}
        for name, _ in LAYER_METRICS:
            layer, kind = name.rsplit(".", 1)
            if name == "ppca.objective_neighbor.discarded":
                values[name] = float(self.discarded)
            elif kind == "calls":
                values[name] = float(self.calls[layer])
            else:
                values[name] = self.self_s[layer]
        return values


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class DiscardCounter:
    """Counts neighbor evaluations whose ranking weight the scheduler ignores.

    Called from the trace hook after iteration t. ap uses its ranking
    weights only while t < t_max and vp_ap only while t <= t_max; nap
    and vp_nap ignore them on an exhausted edge, and a node's
    evaluations are all wasted only when every one of its edges was
    exhausted before the iteration's update.
    """

    def __init__(self, tracer: Tracer, scheme: str, t_max: int):
        self.tracer = tracer
        self.scheme = scheme
        self.t_max = t_max
        self.exhausted_nodes: set[int] = set()

    def after_iteration(self, t: int, scheduler, models) -> None:
        evals = [self.tracer.neighbor_evals.pop(id(m), 0) for m in models]
        if self.scheme == "ap":
            wasted = sum(evals) if t >= self.t_max else 0
        elif self.scheme == "vp_ap":
            wasted = sum(evals) if t > self.t_max else 0
        elif self.scheme in ("nap", "vp_nap"):
            wasted = sum(evals[i] for i in self.exhausted_nodes)
            self.exhausted_nodes = {
                i
                for i, nbs in enumerate(scheduler.graph.neighbors)
                if nbs and all(scheduler.state(i, j).exhausted for j in nbs)
            }
        else:
            wasted = 0
        self.tracer.discarded += wasted
