"""Round-synchronous consensus-ADMM simulation engine.

Each iteration runs four barrier-separated phases over all nodes:
local parameter step, broadcast, multiplier step, then the penalty
(and, for budgeted schemes, budget) update. A node only ever sees
neighbor values produced before the current phase, so results are
independent of node execution order and the phases may run their
per-node work in parallel threads.

A node's penalties for an iteration are slices of the scheduler's
per-edge arrays: its outgoing penalties, its node penalty, and the
edge-symmetrized penalties of the dual step. The penalty update
evaluates a node's objective at its neighbors' parameters only when the
scheduler will use that node's ranking weights, in one batched
``objectives`` call per node.

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
from concurrent.futures import ThreadPoolExecutor
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
    """Outcome of one simulation run."""

    records: list[IterationRecord]
    models: list[ConsensusModel]
    graph: Graph
    scheduler: PenaltyScheduler

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
    parallel: bool = False,
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
        Per-node data, one entry per node.
    parallel : bool
        Execute each phase's per-node work in a thread pool. Results are
        collected in node order, so output is identical to the
        single-threaded mode.
    trace_hook : callable, optional
        Called as ``hook(t, scheduler, models)`` after each iteration's
        record, for diagnostics that need scheduler internals.

    Returns
    -------
    RunResult
        Iteration records plus the final models, graph, and scheduler.

    Raises
    ------
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
    n = graph.num_nodes
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(n)]
    models = [model_factory(i, shards[i], rngs[i]) for i in range(n)]
    scheduler = make_scheduler(config.scheme, graph, config.penalty)

    pool = ThreadPoolExecutor(max_workers=min(n, os.cpu_count() or 1)) if parallel else None

    def for_each_node(fn, nodes=range(n)):
        if pool is not None:
            return list(pool.map(fn, nodes))
        return [fn(i) for i in nodes]

    try:
        snapshots = for_each_node(lambda i: models[i].params_vector())
        inbox = broadcast_round(graph, snapshots)
        f_prev_self = for_each_node(lambda i: models[i].objective())
        initial_objective = math.fsum(f_prev_self)
        prev_navg: list[np.ndarray | None] = [None] * n

        def neighbor_objectives(i):
            # Node i's objective at this round's broadcasts of its neighbors
            # (or the midpoints with its own), in one batched call.
            nbs = graph.neighbors[i]
            if not nbs:
                return {}
            points = np.stack([inbox[i][j] for j in nbs])
            if config.penalty.eval_point != "neighbor":
                points = 0.5 * (snapshots[i] + points)
            return dict(zip(nbs, models[i].objectives(points)))

        records: list[IterationRecord] = []
        history: list[float] = []
        for t in range(config.max_iterations):
            # Penalties in force for this whole iteration.
            edge_eta = scheduler.edge_state.eta
            etas = scheduler.by_node(edge_eta)
            node_eta = scheduler.node_etas()
            # The dual ascent sees each edge's two directed penalties
            # averaged. This keeps the network-wide multiplier sum
            # conserved (the two ends of an edge receive opposite,
            # equally-weighted increments), so once a scheme resets to a
            # homogeneous penalty the remaining iterations are standard
            # ADMM converging to the true constrained optimum instead of
            # a multiplier-shifted copy of it.
            dual_etas = scheduler.by_node(0.5 * (edge_eta + edge_eta[scheduler.reverse]))

            # Phase 1: local parameter steps against last-round broadcasts.
            for_each_node(lambda i: models[i].local_step(inbox[i], etas[i]))

            # Phase 2: synchronous broadcast of the new parameters.
            snapshots = for_each_node(lambda i: models[i].params_vector())
            inbox = broadcast_round(graph, snapshots)

            # Phase 3: dual ascent with the edge-symmetrized penalties.
            for_each_node(lambda i: models[i].multiplier_step(inbox[i], dual_etas[i]))

            # Phase 4: penalty (and budget) update from this round's signals.
            f_self = for_each_node(lambda i: models[i].objective())
            navg = [
                np.mean([inbox[i][j] for j in graph.neighbors[i]], axis=0)
                if graph.neighbors[i]
                else None
                for i in range(n)
            ]
            residuals = []
            for i in range(n):
                if navg[i] is None:
                    residuals.append(ResidualPair(0.0, 0.0))
                    continue
                prev = prev_navg[i] if prev_navg[i] is not None else navg[i]
                residuals.append(local_residuals(snapshots[i], navg[i], prev, node_eta[i]))
            ranked = scheduler.ranking_nodes(t)
            f_neighbors = for_each_node(neighbor_objectives, ranked)
            scheduler.update(
                t, RoundSignals(residuals, f_self, f_prev_self, dict(zip(ranked, f_neighbors)))
            )

            # Phase 5: record, then check convergence and divergence.
            objective = math.fsum(f_self)
            history.append(objective)
            all_etas = scheduler.all_etas()
            record = IterationRecord(
                t=t,
                objective=objective,
                max_primal=max(r.primal_norm for r in residuals),
                max_dual=max(r.dual_norm for r in residuals),
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

            prev_navg = navg
            f_prev_self = f_self
            if record.converged:
                break
    finally:
        if pool is not None:
            pool.shutdown()

    return RunResult(records, models, graph, scheduler)


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
    }
