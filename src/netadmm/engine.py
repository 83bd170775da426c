"""Round-synchronous consensus-ADMM simulation engine.

Each iteration runs four barrier-separated phases over all nodes:
local parameter step, broadcast, multiplier step, then the penalty
(and, for budgeted schemes, budget) update. A node only ever sees
neighbor values produced before the current phase, so results are
independent of node execution order. :func:`step` is the first three,
the map (theta, dual) -> (theta', dual') at fixed penalties.

A run's nodes are one :class:`NodeGroup`, and each phase is one call on
it. The group holds two (J, P) matrices, one row per node: ``theta``,
the parameters that the nodes broadcast, and ``dual``, their multipliers,
whose step is the same for every model and runs in the group. The
per-edge penalties act through the J x J penalty matrix (the
weighted-graph form of consensus ADMM, Boyd et al. 2011, section 7). A
builder makes the group once from the shards, and a
:class:`ConsensusModel`, one node's read-only view of its row, serves
only the trace hook.
The penalty phase is one call on the :class:`PenaltyScheduler`: it
measures the residuals from the broadcasts and has the group evaluate
objectives at the edge midpoints only for the nodes whose ranking
weights it will use, in one call for all of their edges.

A run ends by returning a :class:`RunResult` that says how it ended,
with the records so far and the node group, so a run that fails still
leaves a trace. The engine writes no files: ``metrics`` turns a result
into its artifacts.

The simulator is an omniscient observer: it sums the per-node
objectives into the global objective used for the convergence check
and the trace, something a real deployment would need to aggregate
explicitly.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .penalty import PenaltyConfig, PenaltyScheduler, SCHEMES
from .topology import Graph, build_graph

__all__ = [
    "ConsensusModel",
    "NodeGroup",
    "QuadraticNodes",
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "convergence_check",
    "step",
    "run",
]

#: factor by which the |objective| may exceed its initial magnitude
_DIVERGENCE_FACTOR = 1e12


class ConsensusModel:
    """One node of a run: a read-only view of row ``_row`` of the :class:`NodeGroup` ``_nodes``.

    The group hands out its nodes' views (:meth:`NodeGroup.views`) for the
    trace hook only; results read the group itself, and only the group steps.
    """

    def __init__(self, nodes: "NodeGroup", row: int):
        self._nodes, self._row = nodes, row


class NodeGroup(abc.ABC):
    """The nodes of one run on the graph ``graph``; each phase is one call over all of them.

    ``theta`` and ``dual`` hold the nodes' flat parameters and multipliers
    (zero at the start), one row per node. Penalties are arrays over the
    graph's directed edges in ``graph.directed_edges()`` order, which
    ``graph.weights`` lays out as a J x J matrix. ``local_step`` must not
    increase a node's augmented Lagrangian.
    """

    #: the class of the nodes' views
    view: type[ConsensusModel] = ConsensusModel

    def __init__(self, theta: np.ndarray, graph: Graph):
        self.theta = np.array(theta, dtype=float)
        self.dual = np.zeros_like(self.theta)
        self.graph = graph

    def views(self) -> list[ConsensusModel]:
        """One :attr:`view` per node, in node order."""
        return [self.view(self, i) for i in range(self.graph.num_nodes)]

    def params_matrix(self) -> np.ndarray:
        """Every node's flat parameters, one row per node: a copy of ``theta``."""
        return self.theta.copy()

    def multiplier_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        """Dual ascent against this round's broadcasts ``theta`` with per-edge penalties ``eta``.

        Node i's row of ``dual`` gains ``(1/2) Σ_j η̄_ij (θ_i − θ_j)``: the
        penalty-weighted consensus errors, halved, the same for every model.
        ``η̄_ij = (η_ij + η_ji)/2`` averages each edge's two directed
        penalties, so the two ends of an edge receive opposite, equally
        weighted increments and the network-wide sum of ``dual`` is
        conserved whatever ``eta`` holds. Once a scheme resets to a
        homogeneous penalty, the remaining iterations are then standard
        ADMM converging to the true constrained optimum instead of a
        multiplier-shifted copy of it.
        """
        weights = self.graph.weights(eta)
        weights = 0.5 * (weights + weights.T)
        self.dual += 0.5 * (weights.sum(axis=1)[:, None] * theta - weights @ theta)

    @abc.abstractmethod
    def objectives(self) -> np.ndarray:
        """Every node's objective at its own parameters."""

    @abc.abstractmethod
    def local_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        """Local steps against last round's broadcasts ``theta`` with per-edge penalties ``eta``."""

    @abc.abstractmethod
    def neighbor_objectives(self, nodes: Sequence[int], theta: np.ndarray) -> np.ndarray:
        """Each of ``nodes``' objective at the midpoints of its edges.

        ``nodes`` is ascending and ``theta`` holds every node's broadcast,
        one row per node. The result has one value per outgoing edge of
        ``nodes``, in directed-edge order (``Graph.out_edges``): the source's
        objective at the mean of its own and the target's rows of ``theta``.
        """

    def m_step_counts(self) -> tuple[int, int, int]:
        """Inner solver steps of the local steps so far, the node steps that
        stopped at the step cap and those that needed a ridge retry; zeros
        without such a solver."""
        return (0, 0, 0)


class QuadraticNodes(NodeGroup):
    """Nodes with objectives ``|theta_i - center_i|^2``, stepped in closed form.

    The consensus optimum over any connected graph is the mean of the
    centers, which makes these nodes the analytic oracle for the engine's
    ADMM plumbing. Rows of ``center`` are nodes, and each node's row of
    ``theta`` starts at its center. For
    :func:`run`, ``lambda shards, rngs, graph: QuadraticNodes(shards, graph)``
    builds them with the shards as centers.
    """

    def __init__(self, center: np.ndarray, graph: Graph):
        super().__init__(center, graph)
        self.center = self.theta.copy()

    def objectives(self) -> np.ndarray:
        return np.sum((self.theta - self.center) ** 2, axis=1)

    def local_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        # Minimizer of |t - c|^2 + 2 y.t + sum_j eta_ij |t - (t_i + t_j)/2|^2, y = dual.
        weights = self.graph.weights(eta)
        eta_sum = weights.sum(axis=1)[:, None]
        anchor = 0.5 * (eta_sum * theta + weights @ theta)
        self.theta = (self.center - self.dual + anchor) / (1.0 + eta_sum)

    def neighbor_objectives(self, nodes: Sequence[int], theta: np.ndarray) -> np.ndarray:
        sources, targets = self.graph.edge_arrays()
        rows = self.graph.out_edges(nodes)
        points = 0.5 * (theta[sources[rows]] + theta[targets[rows]])
        return np.sum((points - self.center[sources[rows]]) ** 2, axis=1)


@dataclass(frozen=True)
class RunConfig:
    """Everything that identifies one simulation run.

    ``convergence_tol`` is the relative objective change that stops a run
    (:func:`convergence_check`), finite; 0 means no stopping rule, so the
    run goes to ``max_iterations``. The topology's graph builder must
    accept ``num_nodes``.
    """

    topology: str = "complete"
    num_nodes: int = 1
    scheme: str = "fixed"
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    max_iterations: int = 300
    convergence_tol: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        build_graph(self.topology, self.num_nodes)  # the builder's rules and messages
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


@dataclass
class RunResult:
    """How one simulation run ended, with its records and final state.

    ``outcome`` is ``"converged"``, ``"cap"`` (``max_iterations`` reached
    first), ``"diverged"`` (in the last record the global objective is
    non-finite or exceeds 1e12 times its initial magnitude) or ``"error"``
    (a phase raised ``ValueError``; the records are those before it).
    ``message`` says why a diverged or errored run stopped, and is empty
    otherwise. ``nodes`` is the run's node group in its final state.
    """

    records: list[IterationRecord]
    nodes: NodeGroup
    scheduler: PenaltyScheduler
    outcome: str
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def iterations(self) -> int:
        """Completed iterations: a run stops at its first converged record."""
        return len(self.records)


def convergence_check(objective_history: Sequence[float], tol: float) -> bool:
    """Relative-change stopping criterion on the global objective.

    False with fewer than two entries; otherwise true when the last step
    moved the objective by less than ``tol`` relative to the previous
    value (guarded against a zero denominator), so never at ``tol = 0``.
    """
    if len(objective_history) < 2:
        return False
    prev, curr = objective_history[-2], objective_history[-1]
    return abs(curr - prev) / (abs(prev) + 1e-12) < tol


def step(nodes: NodeGroup, theta: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """One iteration's phases 1-3 on ``nodes`` at per-edge penalties ``eta``; returns the broadcasts.

    The local steps run against last round's broadcasts ``theta``, the
    nodes broadcast (``params_matrix()``), and the dual step runs against
    those broadcasts, so ``nodes.theta`` and ``nodes.dual`` end at the next
    iterate.
    """
    nodes.local_step(theta, eta)
    theta = nodes.params_matrix()
    nodes.multiplier_step(theta, eta)
    return theta


def run(
    config: RunConfig,
    make_nodes: Callable[[Sequence[np.ndarray], list[np.random.Generator], Graph], NodeGroup],
    shards: Sequence[np.ndarray],
    trace_hook: Callable[[int, PenaltyScheduler, list[ConsensusModel]], None] | None = None,
) -> RunResult:
    """Simulate consensus ADMM until it converges, reaches the cap, diverges or fails.

    Parameters
    ----------
    config : RunConfig
        Graph, scheme, penalty settings, stopping rule, and seed.
    make_nodes : callable
        ``make_nodes(shards, rngs, graph) -> NodeGroup`` building the run's
        nodes, called once; ``rngs[i]`` is node i's generator, spawned
        deterministically from the run seed.
    shards : sequence of ndarray
        Per-node data, one entry per node, all with the same number of rows.
    trace_hook : callable, optional
        Called as ``hook(t, scheduler, models)`` after each iteration's
        record, for diagnostics that need scheduler internals; ``models``
        are the group's views (:meth:`NodeGroup.views`), built once, and
        built only for the hook. What it raises propagates.

    Returns
    -------
    RunResult
        How the run ended, its records so far, and the final node group
        and scheduler, whose ``graph`` is the run's. A ``ValueError`` from
        the node group's steps, objectives or ranking, or from the
        scheduler's update, ends the run with outcome ``"error"``.

    Raises
    ------
    ValueError
        Before the first iteration: if the shard count or the shards' row
        counts do not match (``make_nodes`` is then not called), or if
        ``make_nodes`` raises it.
    """
    graph = build_graph(config.topology, config.num_nodes)
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
    nodes = make_nodes(shards, rngs, graph)
    models = nodes.views() if trace_hook is not None else None
    scheduler = PenaltyScheduler(config.scheme, graph, config.penalty)

    theta = nodes.params_matrix()
    f_prev_self = nodes.objectives()
    initial_objective = math.fsum(f_prev_self)
    records: list[IterationRecord] = []
    history: list[float] = []
    outcome, message = "cap", ""
    for t in range(config.max_iterations):
        # Penalties in force for this whole iteration.
        eta = scheduler.edge_state.eta

        try:
            # Phases 1-3: local steps, broadcast, dual ascent.
            theta = step(nodes, theta, eta)

            # Phase 4: penalty (and budget) update from this round's signals.
            f_self = nodes.objectives()
            residuals = scheduler.update(t, theta, f_self, f_prev_self, nodes.neighbor_objectives)
        except ValueError as exc:
            outcome, message = "error", f"{type(exc).__name__} at iteration {t}: {exc}"
            break

        # Phase 5: record, then check divergence and convergence.
        objective = math.fsum(f_self)
        history.append(objective)
        all_etas = scheduler.all_etas()
        record = IterationRecord(
            t=t,
            objective=objective,
            max_primal=float(residuals.primal_norm.max()),
            max_dual=float(residuals.dual_norm.max()),
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
            outcome, message = "diverged", f"objective diverged at iteration {t}: {objective!r}"
            break

        f_prev_self = f_self
        if record.converged:
            outcome = "converged"
            break

    return RunResult(records, nodes, scheduler, outcome, message)

