"""Round-synchronous consensus-ADMM simulation engine.

Each iteration runs four barrier-separated phases over all nodes:
local parameter step, broadcast, multiplier step, then the penalty
(and, for budgeted schemes, budget) update. A node only ever sees
neighbor values produced before the current phase, so results are
independent of node execution order.

Each phase is one call on a :class:`NodeGroup` that holds all nodes:
broadcasts are the rows of one (J, P) matrix and penalties are the
scheduler's arrays over directed edges. The default group loops over
the models' per-node methods; a model class with stacked kernels (D-PPCA)
runs each phase for all nodes at once. Neighbor means and residuals are
array operations, and the penalty update evaluates objectives at
neighbors' parameters only for the nodes whose ranking weights the
scheduler will use, in one call for all of their edges.

The simulator is an omniscient observer: it sums the per-node
objectives into the global objective used for the convergence check
and the trace, something a real deployment would need to aggregate
explicitly.
"""

from __future__ import annotations

import abc
import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .penalty import (
    PenaltyConfig,
    PenaltyScheduler,
    ResidualPair,
    RoundSignals,
    SCHEMES,
    local_residuals,
    make_scheduler,
)
from .topology import Graph, TOPOLOGIES, build_graph

__all__ = [
    "ConsensusModel",
    "NodeGroup",
    "QuadraticModel",
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "DivergenceError",
    "convergence_check",
    "broadcast_round",
    "run",
    "iterations_to_convergence",
    "write_trace_csv",
    "run_summary",
    "TRACE_COLUMNS",
]

#: factor by which the |objective| may exceed its initial magnitude
_DIVERGENCE_FACTOR = 1e12


class ConsensusModel(abc.ABC):
    """Behavioral contract of one node's local model.

    Parameters cross the node boundary only as flat vectors; models
    unflatten neighbor broadcasts internally. ``local_step`` must not
    increase the node's augmented Lagrangian and ``multiplier_step``
    performs the dual ascent with the same per-edge penalties the local
    step used.
    """

    @abc.abstractmethod
    def params_vector(self) -> np.ndarray:
        """Current parameters flattened to one vector."""

    @abc.abstractmethod
    def objective(self, params: np.ndarray | None = None) -> float:
        """Local objective at the given flat parameters (own if None)."""

    def objectives(self, params: np.ndarray) -> list[float]:
        """Local objective at each row of a (K, P) stack of flat parameters.

        The engine ranks a node's neighbors with one call; this default
        loops over ``objective``, and models with a batched kernel
        override it.
        """
        return [self.objective(p) for p in params]

    @abc.abstractmethod
    def local_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        """Update own parameters given last-round neighbor broadcasts."""

    @abc.abstractmethod
    def multiplier_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        """Dual ascent on the multipliers given current-round broadcasts."""

    @classmethod
    def group(cls, models: Sequence["ConsensusModel"], graph: Graph) -> "NodeGroup":
        """All nodes of a run as one :class:`NodeGroup`.

        The engine calls this once per run, on the models' class when they
        all share it. This default loops over the per-node methods; a model
        class with stacked kernels returns a group that runs each phase for
        all nodes at once.
        """
        return NodeGroup(models, graph)


class NodeGroup:
    """The nodes of one run; each phase is one call over all of them.

    Broadcasts are the rows of a (J, P) matrix, and penalties are arrays
    over the graph's directed edges in ``graph.directed_edges()`` order.
    This default calls each model's per-node methods in node order.
    """

    def __init__(self, models: Sequence[ConsensusModel], graph: Graph):
        self.models, self.graph = list(models), graph

    def params_matrix(self) -> np.ndarray:
        """Every node's flat parameters, one row per node."""
        return np.stack([m.params_vector() for m in self.models])

    def objectives(self) -> np.ndarray:
        """Every node's objective at its own parameters."""
        return np.array([m.objective() for m in self.models], dtype=float)

    def m_step_counts(self) -> tuple[int, int, int]:
        """Inner solver steps of the local steps so far, the node steps that
        stopped at the step cap and those that needed a ridge retry, summed
        over the models that count them (``m_step_counts()``); zeros
        without such a solver."""
        counts = [m.m_step_counts() for m in self.models if hasattr(m, "m_step_counts")]
        return tuple(int(sum(c)) for c in zip(*counts)) if counts else (0, 0, 0)

    def _per_node(self, step: str, theta: np.ndarray, eta: np.ndarray) -> None:
        inboxes, eta, off = broadcast_round(self.graph, theta), eta.tolist(), self.graph.offsets
        for i, (model, nbs) in enumerate(zip(self.models, self.graph.neighbors)):
            getattr(model, step)(inboxes[i], dict(zip(nbs, eta[off[i] : off[i + 1]])))

    def local_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        """Local steps against the broadcasts ``theta`` with per-edge penalties ``eta``."""
        self._per_node("local_step", theta, eta)

    def multiplier_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        """Dual ascent against the broadcasts ``theta`` with per-edge penalties ``eta``."""
        self._per_node("multiplier_step", theta, eta)

    def neighbor_objectives(self, nodes: Sequence[int], points: np.ndarray) -> np.ndarray:
        """Objectives of ``nodes`` (ascending) at the rows of ``points``.

        ``points`` holds one row per outgoing edge of each node in
        ``nodes``, in directed-edge order; each node scores its rows in
        one ``objectives`` call.
        """
        values, start = [], 0
        for i in nodes:
            k = len(self.graph.neighbors[i])
            if k:
                values.extend(self.models[i].objectives(points[start : start + k]))
            start += k
        return np.array(values, dtype=float)


class QuadraticModel(ConsensusModel):
    """Reference model with objective ``|theta - center|^2``.

    The consensus optimum over any connected graph is the mean of the
    node centers, which makes this model the analytic oracle for the
    engine's ADMM plumbing.
    """

    def __init__(self, center: np.ndarray):
        self.center = np.asarray(center, dtype=float).copy()
        self.theta = self.center.copy()
        self.gamma = np.zeros_like(self.center)

    def params_vector(self) -> np.ndarray:
        return self.theta.copy()

    def objective(self, params: np.ndarray | None = None) -> float:
        theta = self.theta if params is None else np.asarray(params, dtype=float)
        return float(np.sum((theta - self.center) ** 2))

    def local_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        # Minimizer of |t - c|^2 + 2 gamma.t + sum_j eta_j |t - (own+nb_j)/2|^2.
        eta_sum = sum(eta.values())
        anchor = np.zeros_like(self.theta)
        for j, theta_j in neighbors.items():
            anchor += eta[j] * (self.theta + theta_j) / 2.0
        self.theta = (self.center - self.gamma + anchor) / (1.0 + eta_sum)

    def multiplier_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        for j, theta_j in neighbors.items():
            self.gamma += 0.5 * eta[j] * (self.theta - theta_j)


@dataclass(frozen=True)
class RunConfig:
    """Everything that identifies one simulation run."""

    topology: str = "complete"
    num_nodes: int = 1
    scheme: str = "fixed"
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    max_iterations: int = 300
    convergence_tol: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {', '.join(TOPOLOGIES)}")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be > 0")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the per-iteration trace.

    ``max_primal`` and ``max_dual`` are the largest per-node residual
    norms; the eta statistics summarize all directed-edge penalties
    after this iteration's penalty update.
    """

    t: int
    objective: float
    max_primal: float
    max_dual: float
    eta_min: float
    eta_max: float
    eta_mean: float
    converged: bool
    exhausted_edges: int = 0


class DivergenceError(RuntimeError):
    """Raised when the global objective blows up or turns non-finite."""

    def __init__(self, message: str, records: list[IterationRecord]):
        super().__init__(message)
        self.records = records

    @property
    def last_record(self) -> IterationRecord | None:
        return self.records[-1] if self.records else None


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``m_step_cycles``, ``m_step_cap_hits`` and ``m_step_ridge`` are the
    node group's totals (see :meth:`NodeGroup.m_step_counts`).
    """

    records: list[IterationRecord]
    models: list[ConsensusModel]
    graph: Graph
    scheduler: PenaltyScheduler
    m_step_cycles: int = 0
    m_step_cap_hits: int = 0
    m_step_ridge: int = 0

    @property
    def converged(self) -> bool:
        return bool(self.records) and self.records[-1].converged

    @property
    def iterations(self) -> int:
        return iterations_to_convergence(self.records)


def convergence_check(objective_history: Sequence[float], tol: float) -> bool:
    """Relative-change stopping criterion on the global objective.

    False with fewer than two entries; otherwise true when the last step
    moved the objective by less than ``tol`` relative to the previous
    value (guarded against a zero denominator).
    """
    if len(objective_history) < 2:
        return False
    prev, curr = objective_history[-2], objective_history[-1]
    return abs(curr - prev) / (abs(prev) + 1e-12) < tol


def broadcast_round(graph: Graph, snapshots: Sequence[np.ndarray]) -> list[dict[int, np.ndarray]]:
    """Deliver every node's snapshot to all of its neighbors.

    Returns per-node inboxes; node i's inbox maps each neighbor id to
    that neighbor's snapshot from this round. The simulated network is
    lossless and synchronous.
    """
    return [{j: snapshots[j] for j in graph.neighbors[i]} for i in range(graph.num_nodes)]


def iterations_to_convergence(records: Sequence[IterationRecord]) -> int:
    """Completed iterations up to the first converged record (or all)."""
    for record in records:
        if record.converged:
            return record.t + 1
    return len(records)


def run(
    config: RunConfig,
    model_factory: Callable[[int, np.ndarray, np.random.Generator], ConsensusModel],
    shards: Sequence[np.ndarray],
    trace_hook: Callable[[int, PenaltyScheduler, list[ConsensusModel]], None] | None = None,
) -> RunResult:
    """Simulate consensus ADMM until convergence or the iteration cap.

    Parameters
    ----------
    config : RunConfig
        Graph, scheme, penalty settings, stopping rule, and seed.
    model_factory : callable
        ``factory(node_id, shard, rng) -> ConsensusModel`` building each
        node's model; the generators are spawned deterministically from
        the run seed.
    shards : sequence of ndarray
        Per-node data, one entry per node, all with the same number of rows.
    trace_hook : callable, optional
        Called as ``hook(t, scheduler, models)`` after each iteration's
        record, for diagnostics that need scheduler internals.

    Returns
    -------
    RunResult
        Iteration records plus the final models, graph, and scheduler.

    Raises
    ------
    ValueError
        Before the first iteration, if the shard count or the shards' row
        counts do not match.
    DivergenceError
        If the global objective turns non-finite or exceeds 1e12 times
        its initial magnitude.
    """
    graph = build_graph(config.topology, config.num_nodes)
    graph.validate()
    if len(shards) != config.num_nodes:
        raise ValueError(
            f"got {len(shards)} data shards for {config.num_nodes} nodes"
        )
    counts = [np.shape(shard)[0] if np.ndim(shard) else 0 for shard in shards]
    for i, count in enumerate(counts):
        if count != counts[0]:
            raise ValueError(f"node {i}: shard has {count} rows, node 0 has {counts[0]}")
    n = graph.num_nodes
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(n)]
    models = [model_factory(i, shards[i], rngs[i]) for i in range(n)]
    scheduler = make_scheduler(config.scheme, graph, config.penalty)
    model_cls = type(models[0])
    if any(type(m) is not model_cls for m in models):
        model_cls = ConsensusModel
    nodes = model_cls.group(models, graph)
    sources, targets = graph.edge_arrays()
    degrees = graph.degrees[:, None]
    midpoint = config.penalty.eval_point != "neighbor"

    theta = nodes.params_matrix()
    f_prev_self = nodes.objectives()
    initial_objective = math.fsum(f_prev_self)
    prev_navg = None
    no_residual = np.zeros(n)
    records: list[IterationRecord] = []
    history: list[float] = []
    for t in range(config.max_iterations):
        # Penalties in force for this whole iteration.
        edge_eta = scheduler.edge_state.eta
        node_eta = scheduler.node_etas()
        # The dual ascent sees each edge's two directed penalties
        # averaged. This keeps the network-wide multiplier sum
        # conserved (the two ends of an edge receive opposite,
        # equally-weighted increments), so once a scheme resets to a
        # homogeneous penalty the remaining iterations are standard
        # ADMM converging to the true constrained optimum instead of
        # a multiplier-shifted copy of it.
        dual_eta = 0.5 * (edge_eta + edge_eta[scheduler.reverse])

        # Phase 1: local parameter steps against last-round broadcasts.
        nodes.local_step(theta, edge_eta)

        # Phase 2: synchronous broadcast of the new parameters.
        theta = nodes.params_matrix()

        # Phase 3: dual ascent with the edge-symmetrized penalties.
        nodes.multiplier_step(theta, dual_eta)

        # Phase 4: penalty (and budget) update from this round's signals.
        f_self = nodes.objectives()
        residuals = ResidualPair(no_residual, no_residual)
        if len(sources):
            navg = graph.neighbor_rows(theta).sum(axis=0) / degrees
            prev = navg if prev_navg is None else prev_navg
            residuals = local_residuals(theta, navg, prev, node_eta)
            prev_navg = navg
        ranked = scheduler.ranking_nodes(t)
        f_neighbors = np.zeros(len(sources))
        if ranked and len(sources):
            # Each ranking node's objective at its neighbors' broadcasts
            # (or the midpoints with its own), one call for all edges.
            rows = np.flatnonzero(np.isin(sources, ranked))
            points = theta[targets[rows]]
            if midpoint:
                points = 0.5 * (theta[sources[rows]] + points)
            f_neighbors[rows] = nodes.neighbor_objectives(ranked, points)
        scheduler.update(t, RoundSignals(residuals, f_self, f_prev_self, f_neighbors))

        # Phase 5: record, then check convergence and divergence.
        objective = math.fsum(f_self)
        history.append(objective)
        all_etas = scheduler.all_etas()
        record = IterationRecord(
            t=t,
            objective=objective,
            max_primal=float(np.sqrt(residuals.primal_sq).max()),
            max_dual=float(np.sqrt(residuals.dual_sq).max()),
            eta_min=float(all_etas.min()),
            eta_max=float(all_etas.max()),
            eta_mean=float(all_etas.mean()),
            converged=convergence_check(history, config.convergence_tol),
            exhausted_edges=scheduler.exhausted_edges(),
        )
        records.append(record)
        if trace_hook is not None:
            trace_hook(t, scheduler, models)
        if not math.isfinite(objective) or abs(objective) > _DIVERGENCE_FACTOR * max(
            1.0, abs(initial_objective)
        ):
            raise DivergenceError(
                f"objective diverged at iteration {t}: {objective!r}", records
            )

        f_prev_self = f_self
        if record.converged:
            break

    return RunResult(records, models, graph, scheduler, *nodes.m_step_counts())


TRACE_COLUMNS = (
    "t",
    "objective",
    "max_primal",
    "max_dual",
    "eta_min",
    "eta_max",
    "eta_mean",
    "converged",
)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def write_trace_csv(records: Sequence[IterationRecord], path: str | Path) -> None:
    """Write the iteration trace as CSV (atomically, 12 significant digits)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.t,
                    _fmt(r.objective),
                    _fmt(r.max_primal),
                    _fmt(r.max_dual),
                    _fmt(r.eta_min),
                    _fmt(r.eta_max),
                    _fmt(r.eta_mean),
                    int(r.converged),
                ]
            )
    os.replace(tmp, path)


def run_summary(config_echo: dict, result: RunResult) -> dict:
    """Self-describing summary of one run (config echo plus final metrics)."""
    last = result.records[-1]
    return {
        "config": config_echo,
        "iterations": result.iterations,
        "converged": result.converged,
        "total_iterations_run": len(result.records),
        "final": {
            "objective": last.objective,
            "max_primal": last.max_primal,
            "max_dual": last.max_dual,
            "eta_min": last.eta_min,
            "eta_max": last.eta_max,
            "eta_mean": last.eta_mean,
            "exhausted_edges": last.exhausted_edges,
        },
        "m_step": {
            "cycles": result.m_step_cycles,
            "cap_hits": result.m_step_cap_hits,
            "ridge": result.m_step_ridge,
        },
    }
