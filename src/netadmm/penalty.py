"""Penalty schedules for consensus ADMM.

Six schemes map per-iteration signals to per-directed-edge penalties
``eta[i, j]``:

* ``fixed``: constant ``eta0``.
* ``vp`` (varying penalty): per-node residual balancing. The node's
  penalty is multiplied by ``1 + tau_fixed`` when the primal residual
  dominates the dual one by a factor ``mu`` (and divided in the mirror
  case), then reset to ``eta0`` at iteration ``t_reset`` so the network
  finishes with a homogeneous penalty.
* ``ap`` (adaptive penalty): each node ranks its own objective evaluated
  at its own vs. each neighbor's parameters; neighbors with better
  estimates receive a larger penalty via ``eta0 * (1 + tau_ij)`` with
  ``tau_ij`` in ``[-0.5, 1]``. Stops at ``t_max``.
* ``nap`` (network-adaptive penalty): like ``ap``, but each directed
  edge holds a spending budget. Every update costs ``|tau_ij|``; an
  exhausted edge falls back to ``eta0`` unless the node's objective is
  still changing, in which case the budget ceiling grows geometrically
  (never past ``budget / (1 - alpha)``).
* ``vp_ap``: residual-balancing branches with the ranking weight folded
  in multiplicatively (``* 2`` or ``* 1/2``), reset after ``t_max``.
* ``vp_nap``: same branches gated by the spending budget instead of an
  iteration cap.

Penalty ranges: ``ap`` and ``nap`` set ``eta0 * (1 + tau_ij)`` from a
weight in ``[-0.5, 1]``, so they stay within ``[eta0/2, 2*eta0]``. ``vp``,
``vp_ap`` and ``vp_nap`` multiply the running penalty and have no bound:
with ``eta0 = 10`` on the synthetic protocol, ``vp_nap`` has been seen
between 0.008 and 40 and ``vp_ap`` between 0.35 and 40.

The update rules are pure elementwise functions, of one edge's scalars or
of arrays over many edges. :class:`PenaltyScheduler` keeps every directed
edge's ledger in arrays and applies the scheme's rule to all at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .topology import Graph

__all__ = [
    "SCHEMES",
    "PenaltyConfig",
    "EdgePenaltyState",
    "ResidualPair",
    "local_residuals",
    "vp_update",
    "ap_taus",
    "ap_update",
    "nap_update",
    "vp_ap_update",
    "vp_nap_update",
    "RoundSignals",
    "PenaltyScheduler",
    "make_scheduler",
]

SCHEMES = ("fixed", "vp", "ap", "nap", "vp_ap", "vp_nap")

_BUDGET_SCHEMES = ("nap", "vp_nap")

_EVAL_POINTS = ("neighbor", "midpoint")


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs shared by all penalty schemes.

    Attributes:
        eta0: Initial (and reset) penalty value.
        mu: Residual-ratio threshold for the balancing branches (> 1).
        tau_fixed: Multiplicative step of the residual-balancing rule.
        t_max: Last iteration at which iteration-capped schemes adapt.
        t_reset: Iteration at which ``vp`` resets all node penalties to
            ``eta0``; defaults to ``t_max``.
        budget: Initial per-edge spending budget of the ``nap`` family.
        alpha: Geometric growth factor of the budget ceiling, in (0, 1).
        beta: Objective-change threshold that allows ceiling growth,
            in (0, 1).
        f_tie_epsilon: Tie tolerance; when all objective evaluations in a
            neighborhood agree to within this (relative) margin, every
            ranking weight is zero and the penalty falls back to ``eta0``.
        eval_point: Where a neighbor's objective is evaluated for the
            ranking weights, either at the neighbor's broadcast
            parameters ("neighbor") or at the edge midpoint ("midpoint").
        relative_beta: Compare the objective change against ``beta``
            relative to the previous value (default) instead of
            absolutely, so the default works across objective scales.
    """

    eta0: float = 10.0
    mu: float = 10.0
    tau_fixed: float = 1.0
    t_max: int = 50
    t_reset: int | None = None
    budget: float = 1.0
    alpha: float = 0.5
    beta: float = 0.1
    f_tie_epsilon: float = 1e-12
    eval_point: str = "midpoint"
    relative_beta: bool = True

    def __post_init__(self) -> None:
        if not self.eta0 > 0:
            raise ValueError("eta0 must be > 0")
        if not self.mu > 1:
            raise ValueError("mu must be > 1")
        if not self.tau_fixed > 0:
            raise ValueError("tau_fixed must be > 0")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.t_reset is not None and self.t_reset < 1:
            raise ValueError("t_reset must be >= 1")
        if not self.budget > 0:
            raise ValueError("budget must be > 0")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if not self.f_tie_epsilon > 0:
            raise ValueError("f_tie_epsilon must be > 0")
        if self.eval_point not in _EVAL_POINTS:
            raise ValueError(f"eval_point must be one of {_EVAL_POINTS}")

    @property
    def reset_iteration(self) -> int:
        """Effective ``vp`` reset iteration (defaults to ``t_max``)."""
        return self.t_max if self.t_reset is None else self.t_reset

    @property
    def ceiling_bound(self) -> float:
        """Upper bound ``budget / (1 - alpha)`` on any budget ceiling."""
        return self.budget / (1.0 - self.alpha)


@dataclass(frozen=True)
class EdgePenaltyState:
    """Penalty and budget ledger of one directed edge (scalar fields) or many (arrays).

    ``spent`` accumulates the absolute ranking weights charged so far,
    ``ceiling`` is the current budget allowance, and ``growth_count``
    counts ceiling increases (the n-th increase adds ``alpha**n *
    budget``, so the ceiling stays below ``budget / (1 - alpha)``).
    """

    eta: float | np.ndarray
    spent: float | np.ndarray = 0.0
    ceiling: float | np.ndarray = 1.0
    growth_count: int | np.ndarray = 1

    @property
    def exhausted(self) -> bool | np.ndarray:
        return self.spent >= self.ceiling


@dataclass(frozen=True)
class ResidualPair:
    """Squared primal and dual residual norms of one node (or arrays)."""

    primal_sq: float | np.ndarray
    dual_sq: float | np.ndarray

    @property
    def primal_norm(self) -> float | np.ndarray:
        return np.sqrt(self.primal_sq)

    @property
    def dual_norm(self) -> float | np.ndarray:
        return np.sqrt(self.dual_sq)


def local_residuals(theta, neighbor_avg, neighbor_avg_prev, eta_i) -> ResidualPair:
    """Per-node consensus residuals from flattened parameter vectors.

    The primal residual measures the gap between the node's parameters
    and the average of its neighbors' current broadcasts; the dual
    residual is the penalty-scaled movement of that neighbor average
    between consecutive rounds.

    Parameters
    ----------
    theta : ndarray
        Node's own flattened parameters, or one row per node.
    neighbor_avg : ndarray
        Unweighted mean of the neighbors' current flattened parameters.
    neighbor_avg_prev : ndarray
        Same average from the previous round.
    eta_i : float or ndarray
        Node's current penalty (scales the dual residual), one per row.

    Returns
    -------
    ResidualPair
        Squared norms ``|theta - avg|^2`` and ``eta_i^2 |avg - avg_prev|^2``
        (floats, or arrays with one entry per row).
    """
    theta = np.asarray(theta, dtype=float)
    avg = np.asarray(neighbor_avg, dtype=float)
    avg_prev = np.asarray(neighbor_avg_prev, dtype=float)
    if theta.shape != avg.shape or avg.shape != avg_prev.shape:
        raise ValueError(
            f"parameter blocks disagree in shape: {theta.shape}, {avg.shape}, {avg_prev.shape}"
        )
    primal_sq = np.sum((theta - avg) ** 2, axis=-1)
    dual_sq = np.asarray(eta_i) ** 2 * np.sum((avg - avg_prev) ** 2, axis=-1)
    return ResidualPair(primal_sq[()], dual_sq[()])


def _where(condition, if_true, if_false):
    # np.where that hands back a scalar, not a 0-d array, for scalar inputs.
    return np.where(condition, if_true, if_false)[()]


def vp_update(state: EdgePenaltyState, res: ResidualPair, cfg: PenaltyConfig, t: int) -> EdgePenaltyState:
    """Varying-penalty step for one node at iteration ``t``.

    Balances the node's local residuals until ``t_reset``, after which
    the penalty snaps back to ``eta0`` and stays there (heterogeneous
    frozen penalties would otherwise oscillate near the saddle point).
    """
    step = 1.0 + cfg.tau_fixed
    grow = res.primal_norm > cfg.mu * res.dual_norm
    shrink = res.dual_norm > cfg.mu * res.primal_norm
    eta = _where(grow, state.eta * step, _where(shrink, state.eta / step, state.eta))
    return replace(state, eta=_where(t >= cfg.reset_iteration, cfg.eta0, eta))


def ap_taus(
    f_self: float, f_neighbors: Mapping[int, float], tie_epsilon: float
) -> dict[int, float]:
    """Ranking weights ``tau_ij`` from local objective evaluations.

    ``f_self`` is the node's objective at its own parameters and
    ``f_neighbors[j]`` the same objective at neighbor j's parameters.
    Each value is min-max normalized over the neighborhood into a score
    ``kappa`` in [1, 2]; ``tau_ij = kappa_self / kappa_j - 1`` then lies
    in [-0.5, 1], positive exactly when neighbor j has the better
    estimate. When all evaluations tie to within ``tie_epsilon``
    (relative), all weights are zero and plain consensus takes over.
    """
    values = np.array([f_self, *f_neighbors.values()], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("objective evaluations must be finite for penalty ranking")
    taus = _rank_weights(f_self, values[1:], values.min(), values.max(), tie_epsilon)
    return dict(zip(f_neighbors, taus.tolist()))


def _rank_weights(f_self, f_neighbor, f_min, f_max, tie_epsilon):
    # kappa(f) = (f - f_min) / span + 1 and tau = kappa(f_self) / kappa(f_j) - 1,
    # elementwise; 0 where the neighborhood ties.
    span = f_max - f_min
    tie = span <= tie_epsilon * np.maximum(1.0, np.abs(f_max))
    span = np.where(tie, 1.0, span)
    tau = ((f_self - f_min) / span + 1.0) / ((f_neighbor - f_min) / span + 1.0) - 1.0
    return np.where(tie, 0.0, tau)


def ap_update(tau_ij, cfg: PenaltyConfig, t: int):
    """Adaptive-penalty value: ``eta0 * (1 + tau_ij)`` until ``t_max``."""
    return _where(t < cfg.t_max, cfg.eta0 * (1.0 + tau_ij), cfg.eta0)


def _budget_step(state: EdgePenaltyState, eta, cost, f_curr, f_prev, cfg: PenaltyConfig) -> EdgePenaltyState:
    # A live edge takes ``eta`` and pays ``cost``, an exhausted one falls
    # back to eta0; an edge exhausted after paying whose objective still
    # moves earns another, geometrically shrinking, slice of budget. The
    # slices use Python's float power: numpy's rounds some differently.
    live = np.logical_not(state.exhausted)
    spent = _where(live, state.spent + cost, state.spent)
    change = abs(f_curr - f_prev)
    if cfg.relative_beta:
        change = change / (abs(f_prev) + 1e-12)
    grow = (spent >= state.ceiling) & (change > cfg.beta)
    top = int(np.max(state.growth_count, initial=0))
    slices = np.array([cfg.alpha**n * cfg.budget for n in range(top + 1)])
    return EdgePenaltyState(
        eta=_where(live, eta, cfg.eta0),
        spent=spent,
        ceiling=_where(grow, state.ceiling + slices[state.growth_count], state.ceiling),
        growth_count=_where(grow, state.growth_count + 1, state.growth_count),
    )


def nap_update(state: EdgePenaltyState, tau_ij, f_curr, f_prev, cfg: PenaltyConfig) -> EdgePenaltyState:
    """Budgeted adaptive-penalty step for one directed edge.

    While budget remains, behaves like ``ap_update`` and pays ``|tau_ij|``
    from the budget; once exhausted, the penalty falls back to ``eta0``.
    Afterwards the ceiling may grow when the node's objective is still
    changing by more than ``beta``, which re-enables updates.
    """
    return _budget_step(state, cfg.eta0 * (1.0 + tau_ij), abs(tau_ij), f_curr, f_prev, cfg)


def _ranked_balance(eta, tau_ij, res: ResidualPair, mu: float):
    # Residual-balancing branches with the ranking weight folded in;
    # also reports whether a branch fired.
    grow = res.primal_norm > mu * res.dual_norm
    shrink = res.dual_norm > mu * res.primal_norm
    scaled = eta * (1.0 + tau_ij)
    return _where(grow, scaled * 2.0, _where(shrink, scaled * 0.5, eta)), grow | shrink


def vp_ap_update(
    state: EdgePenaltyState, tau_ij, res: ResidualPair, cfg: PenaltyConfig, t: int
) -> EdgePenaltyState:
    """Combined residual-balancing and ranking step, capped at ``t_max``.

    The residual branches double or halve the running penalty with the
    ranking weight folded in multiplicatively; past ``t_max`` the penalty
    is reset to ``eta0``.
    """
    eta, _ = _ranked_balance(state.eta, tau_ij, res, cfg.mu)
    return replace(state, eta=_where(t > cfg.t_max, cfg.eta0, eta))


def vp_nap_update(
    state: EdgePenaltyState, tau_ij, f_curr, f_prev, res: ResidualPair, cfg: PenaltyConfig
) -> EdgePenaltyState:
    """Combined residual-balancing step gated by the spending budget.

    Same branches as ``vp_ap_update`` while budget remains; a branch that
    fires pays ``|tau_ij|``. An exhausted edge falls back to ``eta0``
    until (and unless) the ceiling grows again.
    """
    eta, fired = _ranked_balance(state.eta, tau_ij, res, cfg.mu)
    return _budget_step(state, eta, _where(fired, abs(tau_ij), 0.0), f_curr, f_prev, cfg)


@dataclass
class RoundSignals:
    """Per-iteration inputs the engine hands to a scheduler.

    ``residuals`` holds one ``ResidualPair`` per node, or one pair of
    arrays over the nodes; ``f_self`` and ``f_prev_self`` are indexed by
    node id. ``f_neighbors`` gives node i's objective evaluated at each
    neighbor's broadcast (or the edge midpoint, per config), either as
    ``f_neighbors[i][j]`` or as one array in directed-edge order. It is
    read only for the nodes that :meth:`PenaltyScheduler.ranking_nodes`
    names.
    """

    residuals: list[ResidualPair] | ResidualPair
    f_self: list[float] | np.ndarray
    f_prev_self: list[float] | np.ndarray
    f_neighbors: Mapping[int, Mapping[int, float]] | list[Mapping[int, float]] | np.ndarray


class PenaltyScheduler:
    """Per-directed-edge penalty state of one scheme on one graph.

    ``edge_state`` holds one array per ledger field in
    ``graph.directed_edges()`` order (see :class:`Graph` for that layout):
    edge k runs from ``sources[k]`` to ``targets[k]``, and its opposite is
    ``reverse[k]``. An update broadcasts each node's signals to its
    outgoing edges.
    """

    def __init__(self, scheme: str, graph: Graph, cfg: PenaltyConfig):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of {', '.join(SCHEMES)}")
        self.scheme = scheme
        self.graph = graph
        self.cfg = cfg
        self.sources, self.targets = graph.edge_arrays()
        self._index = {edge: k for k, edge in enumerate(graph.directed_edges())}
        self.reverse = np.array([self._index[(j, i)] for i, j in self._index], dtype=int)
        m = len(self._index)
        self.edge_state = EdgePenaltyState(
            eta=np.full(m, cfg.eta0),
            spent=np.zeros(m),
            ceiling=np.full(m, cfg.budget),
            growth_count=np.ones(m, dtype=int),
        )

    def eta(self, i: int, j: int) -> float:
        return float(self.edge_state.eta[self._index[(i, j)]])

    def state(self, i: int, j: int) -> EdgePenaltyState:
        """Ledger of the directed edge (i, j)."""
        k = self._index[(i, j)]
        return EdgePenaltyState(**{name: v[k].item() for name, v in vars(self.edge_state).items()})

    def node_etas(self) -> np.ndarray:
        """Per-node penalties: the mean over the node's outgoing edges,
        summed in edge order (``eta0`` for an isolated node).

        Under ``vp`` every outgoing edge holds the node's own value, which
        is returned as is: a mean of identical copies can round away from it.
        """
        eta = self.edge_state.eta
        if not eta.size:
            return np.full(self.graph.num_nodes, self.cfg.eta0)
        if self.scheme == "vp":
            return eta[self.graph.offsets[:-1]]
        return self.graph.node_sums(eta) / self.graph.degrees

    def node_eta(self, i: int) -> float:
        return float(self.node_etas()[i])

    def all_etas(self) -> np.ndarray:
        """Penalties of every directed edge, in edge-iteration order."""
        if not self._index:
            return np.asarray([self.cfg.eta0])  # single-node graph: report the constant
        return self.edge_state.eta.copy()

    def exhausted_edges(self) -> int:
        """Directed edges whose budget is spent (0 outside the budget schemes)."""
        return int(np.count_nonzero(self.edge_state.exhausted))

    def budget_ceilings(self) -> dict[tuple[int, int], float]:
        """Current budget ceilings per directed edge (budget schemes only)."""
        if self.scheme not in _BUDGET_SCHEMES:
            return {}
        return dict(zip(self._index, self.edge_state.ceiling.tolist()))

    def ranking_nodes(self, t: int) -> list[int]:
        """Nodes whose ranking weights ``update(t, ...)`` will use.

        ``ap`` ranks while ``t < t_max``, ``vp_ap`` while ``t <= t_max``,
        and ``nap`` and ``vp_nap`` a node while one of its edges has budget.
        """
        cfg = self.cfg
        if (self.scheme == "ap" and t < cfg.t_max) or (self.scheme == "vp_ap" and t <= cfg.t_max):
            return list(range(self.graph.num_nodes))
        if self.scheme in _BUDGET_SCHEMES:
            live = self.sources[np.logical_not(self.edge_state.exhausted)]
            return np.unique(live).tolist()
        return []

    def _ranking_taus(self, nodes: list[int], f_self: np.ndarray, f_neighbors) -> np.ndarray:
        # ``ap_taus`` of every outgoing edge of ``nodes`` at once; the other
        # edges see a tie (all values 0) and get 0.
        if not nodes or not len(self.sources):
            return np.zeros(len(self.sources))
        ranked = np.zeros(self.graph.num_nodes, dtype=bool)
        ranked[nodes] = True
        on = ranked[self.sources]
        if isinstance(f_neighbors, np.ndarray):
            f_edge = np.where(on, f_neighbors, 0.0)
        else:
            f_edge = np.array([f_neighbors[i][j] if ranked[i] else 0.0 for i, j in self._index])
        f_own = np.where(ranked, f_self, 0.0)
        if not (np.all(np.isfinite(f_own)) and np.all(np.isfinite(f_edge))):
            raise ValueError("objective evaluations must be finite for penalty ranking")
        starts, src = self.graph.offsets[:-1], self.sources
        lo = np.minimum(np.minimum.reduceat(f_edge, starts), f_own)
        hi = np.maximum(np.maximum.reduceat(f_edge, starts), f_own)
        return _rank_weights(f_own[src], f_edge, lo[src], hi[src], self.cfg.f_tie_epsilon)

    def update(self, t: int, signals: RoundSignals) -> None:
        cfg = self.cfg
        f_self = np.asarray(signals.f_self, dtype=float)
        tau = self._ranking_taus(self.ranking_nodes(t), f_self, signals.f_neighbors)
        res = signals.residuals
        if not isinstance(res, ResidualPair):
            res = ResidualPair(*np.array([(r.primal_sq, r.dual_sq) for r in res]).T)
        src = self.sources
        res = ResidualPair(np.asarray(res.primal_sq)[src], np.asarray(res.dual_sq)[src])
        f_curr = f_self[src]
        f_prev = np.asarray(signals.f_prev_self, dtype=float)[src]
        state = self.edge_state
        if self.scheme == "vp":
            state = vp_update(state, res, cfg, t)
        elif self.scheme == "ap":
            state = replace(state, eta=ap_update(tau, cfg, t))
        elif self.scheme == "nap":
            state = nap_update(state, tau, f_curr, f_prev, cfg)
        elif self.scheme == "vp_ap":
            state = vp_ap_update(state, tau, res, cfg, t)
        elif self.scheme == "vp_nap":
            state = vp_nap_update(state, tau, f_curr, f_prev, res, cfg)
        self.edge_state = state


def make_scheduler(scheme: str, graph: Graph, cfg: PenaltyConfig) -> PenaltyScheduler:
    """Instantiate the scheduler for a scheme name from :data:`SCHEMES`."""
    return PenaltyScheduler(scheme, graph, cfg)
