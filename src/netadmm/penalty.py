"""Penalty schedules for consensus ADMM.

Six schemes map per-iteration signals to per-directed-edge penalties
``eta[i, j]``. They differ in two ways only: the *gate*, which edges
adapt at iteration ``t``, and the *proposal*, the value an adapting edge
takes. An edge that the gate closes takes ``eta0``, so the capped
schemes finish with a homogeneous penalty.

* ``fixed``: no edge adapts.
* ``vp`` (varying penalty): every edge while ``t < t_max``; residual
  balancing multiplies or divides ``eta`` by 2.
* ``ap`` (adaptive penalty): every edge while ``t < t_max``; ranking
  sets ``eta0 * (1 + tau_ij)``.
* ``nap`` (network-adaptive penalty): an edge while it has budget left;
  the proposal of ``ap``.
* ``vp_ap``: every edge while ``t <= t_max``; residual balancing
  multiplies or divides ``eta * (1 + tau_ij)`` by 2.
* ``vp_nap``: an edge while it has budget left; the proposal of ``vp_ap``.

Residual balancing multiplies where the source node's primal residual
dominates its dual one by a factor :data:`MU`, divides in the mirror case,
and keeps ``eta`` otherwise. The ranking weight ``tau_ij`` in
``[-0.5, 1]`` (:func:`rank_weights`) compares the node's objective at its
own parameters with its objective at the edge's midpoint
``(theta_i + theta_j) / 2``: neighbors with better estimates receive a
larger penalty. The budget schemes charge an open edge ``|tau_ij|``
(``vp_nap`` only where a branch fires); an edge exhausted after paying
whose node's objective still changes earns another, geometrically
shrinking, slice of ceiling (never past ``budget / (1 - ALPHA)``).

Penalty ranges: ``ap`` and ``nap`` stay within ``[eta0/2, 2*eta0]``.
``vp``, ``vp_ap`` and ``vp_nap`` multiply the running penalty and are
unbounded; README's table of the default runs gives the ranges they
reached on the protocol data.

:func:`scheme_step` applies a scheme's gate and proposal elementwise to
arrays over edges. :class:`PenaltyScheduler` keeps every directed edge's
ledger in arrays and runs a round's whole penalty phase in one call: it
measures the nodes' residuals from their broadcasts, asks for the
ranking values it needs, and steps every edge at once.

Ranking values cost one objective evaluation per outgoing edge, so they
are asked for once per round and only where a proposal reads them: at
nodes with an open edge, and under ``vp_ap`` and ``vp_nap`` only where
the residual-balancing branch fires, since the weight multiplies nothing
elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .topology import Graph

__all__ = [
    "SCHEMES",
    "PenaltyConfig",
    "EdgePenaltyState",
    "ResidualPair",
    "local_residuals",
    "rank_weights",
    "scheme_step",
    "PenaltyScheduler",
]

SCHEMES = ("fixed", "vp", "ap", "nap", "vp_ap", "vp_nap")

_BUDGET_SCHEMES = ("nap", "vp_nap")

#: A neighborhood whose objective values span no more than this, relative
#: to the largest, is a tie: every ranking weight is zero and the penalty
#: falls back to ``eta0``.
TIE_EPSILON = 1e-12

#: Residual ratio that fires a balancing branch, which steps the penalty
#: by 2 (He, Yang & Wang 2000; Boyd et al. 2011, §3.4.1).
MU = 10.0
#: Ceiling growth factor: the n-th growth adds ``ALPHA**n * budget`` (the
#: source paper's budget extension).
ALPHA = 0.5
#: Relative objective change above which an exhausted edge's ceiling grows
#: (the source paper's budget extension).
BETA = 0.1


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs shared by all penalty schemes.

    Attributes:
        eta0: Initial (and reset) penalty value.
        t_max: Iteration cap of ``vp``, ``ap`` and ``vp_ap``, whose edges
            take ``eta0`` once it closes their gate (module docstring).
        budget: Initial per-edge spending budget of the ``nap`` family.
    """

    eta0: float = 10.0
    t_max: int = 50
    budget: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.eta0 < np.inf:
            raise ValueError("eta0 must be finite and > 0")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not 0 < self.budget < np.inf:
            raise ValueError("budget must be finite and > 0")

    @property
    def ceiling_bound(self) -> float:
        """Upper bound ``budget / (1 - ALPHA)`` on any budget ceiling."""
        return self.budget / (1.0 - ALPHA)


@dataclass(frozen=True)
class EdgePenaltyState:
    """Penalty and budget ledger of directed edges, as arrays over the edges.

    ``spent`` accumulates the absolute ranking weights charged so far,
    ``ceiling`` is the current budget allowance, and ``growth_count``
    counts ceiling increases (the n-th increase adds ``ALPHA**n *
    budget``, so the ceiling stays below ``budget / (1 - ALPHA)``).
    """

    eta: np.ndarray
    spent: np.ndarray
    ceiling: np.ndarray
    growth_count: np.ndarray

    @property
    def exhausted(self) -> np.ndarray:
        return self.spent >= self.ceiling


@dataclass(frozen=True)
class ResidualPair:
    """Squared primal and dual residual norms, as arrays over nodes (or edges)."""

    primal_sq: np.ndarray
    dual_sq: np.ndarray

    @property
    def primal_norm(self) -> np.ndarray:
        return np.sqrt(self.primal_sq)

    @property
    def dual_norm(self) -> np.ndarray:
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
        Every node's flattened parameters, one row per node.
    neighbor_avg : ndarray
        Unweighted mean of each node's neighbors' current parameters.
    neighbor_avg_prev : ndarray
        Same averages from the previous round.
    eta_i : ndarray
        Each node's current penalty (scales the dual residual).

    Returns
    -------
    ResidualPair
        Squared norms ``|theta - avg|^2`` and ``eta_i^2 |avg - avg_prev|^2``,
        one entry per row.
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
    return ResidualPair(primal_sq, dual_sq)


def rank_weights(f_self, f_neighbor, f_min, f_max):
    """Ranking weights ``tau_ij``, elementwise over edges.

    ``f_neighbor`` is the source's objective at the edge midpoint,
    ``f_self`` its objective at its own parameters, and ``f_min`` and
    ``f_max`` bound the values of the source's neighborhood (its own
    included). Each value is min-max normalized into a score
    ``kappa(f) = (f - f_min) / (f_max - f_min) + 1`` in [1, 2], and
    ``tau_ij = kappa(f_self) / kappa(f_neighbor) - 1`` lies in [-0.5, 1],
    positive exactly when the neighbor's side scores better. A
    neighborhood that ties to within :data:`TIE_EPSILON` (relative) gets
    all weights zero, and plain consensus takes over.
    """
    span = f_max - f_min
    tie = span <= TIE_EPSILON * np.maximum(1.0, np.abs(f_max))
    span = np.where(tie, 1.0, span)
    tau = ((f_self - f_min) / span + 1.0) / ((f_neighbor - f_min) / span + 1.0) - 1.0
    return np.where(tie, 0.0, tau)


def _branches(res: ResidualPair):
    # Which residual-balancing branch fires: grow where the primal residual
    # dominates, shrink where the dual one does.
    return res.primal_norm > MU * res.dual_norm, res.dual_norm > MU * res.primal_norm


def _open_edges(scheme: str, state: EdgePenaltyState, t: int, cfg: PenaltyConfig) -> np.ndarray:
    # The gate: which edges of ``state`` adapt at iteration t.
    if scheme in _BUDGET_SCHEMES:
        return np.logical_not(state.exhausted)
    if scheme == "vp_ap":
        adapt = t <= cfg.t_max
    else:
        adapt = scheme != "fixed" and t < cfg.t_max
    return np.full(state.eta.shape, adapt)


def scheme_step(
    scheme: str, state: EdgePenaltyState, t: int, tau, res, f_curr, f_prev, cfg: PenaltyConfig
) -> EdgePenaltyState:
    """One penalty step of ``scheme`` at iteration ``t``, elementwise over directed edges.

    ``tau`` holds each edge's ranking weight, ``res`` its source node's
    residuals, and ``f_curr`` and ``f_prev`` the source's objective this
    round and last; each scheme reads only what its rule needs, so the
    rest may be None. An edge open under the scheme's gate takes its
    proposal and a closed one ``eta0`` (see the module docstring). The
    budget schemes then charge every open edge ``|tau|`` (``vp_nap`` only
    where a branch fires), and an edge exhausted after paying whose
    objective changed by more than :data:`BETA`, relative to ``f_prev``,
    earns the next slice ``ALPHA**n * budget`` of ceiling.
    """
    if scheme == "fixed":
        return state
    adapt = _open_edges(scheme, state, t, cfg)
    if scheme in ("ap", "nap"):
        proposal, fired = cfg.eta0 * (1.0 + tau), True
    else:
        grow, shrink = _branches(res)
        base = state.eta if scheme == "vp" else state.eta * (1.0 + tau)
        proposal = np.where(grow, base * 2.0, np.where(shrink, base / 2.0, state.eta))
        fired = grow | shrink
    eta = np.where(adapt, proposal, cfg.eta0)
    if scheme not in _BUDGET_SCHEMES:
        return replace(state, eta=eta)
    spent = np.where(adapt & fired, state.spent + abs(tau), state.spent)
    change = abs(f_curr - f_prev) / (abs(f_prev) + 1e-12)
    earn = (spent >= state.ceiling) & (change > BETA)
    # The slices use Python's float power: numpy's rounds some differently.
    top = int(np.max(state.growth_count, initial=0))
    slices = np.array([ALPHA**n * cfg.budget for n in range(top + 1)])
    return EdgePenaltyState(
        eta=eta,
        spent=spent,
        ceiling=np.where(earn, state.ceiling + slices[state.growth_count], state.ceiling),
        growth_count=np.where(earn, state.growth_count + 1, state.growth_count),
    )


class PenaltyScheduler:
    """Per-directed-edge penalty state of one scheme on one graph.

    ``edge_state`` holds one array per ledger field in
    ``graph.directed_edges()`` order (see :class:`Graph` for that layout):
    edge k runs from node ``sources[k]``. :meth:`update` runs one round's
    penalty phase and broadcasts each node's signals to its outgoing edges.
    """

    def __init__(self, scheme: str, graph: Graph, cfg: PenaltyConfig):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of {', '.join(SCHEMES)}")
        self.scheme = scheme
        self.graph = graph
        self.cfg = cfg
        self.sources, _ = graph.edge_arrays()
        m = len(self.sources)
        self.edge_state = EdgePenaltyState(
            eta=np.full(m, cfg.eta0),
            spent=np.zeros(m),
            ceiling=np.full(m, cfg.budget),
            growth_count=np.ones(m, dtype=int),
        )
        # last round's neighbor means, for the dual residual
        self._prev_navg: np.ndarray | None = None

    def state(self, i: int, j: int) -> EdgePenaltyState:
        """Ledger of the directed edge (i, j), its fields Python scalars."""
        k = self.graph.offsets[i] + self.graph.neighbors[i].index(j)
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

    def all_etas(self) -> np.ndarray:
        """Penalties of every directed edge, in edge-iteration order."""
        if not len(self.sources):
            return np.asarray([self.cfg.eta0])  # single-node graph: report the constant
        return self.edge_state.eta.copy()

    def exhausted_edges(self) -> int:
        """Directed edges whose budget is spent (0 outside the budget schemes)."""
        return int(np.count_nonzero(self.edge_state.exhausted))

    def budget_ceilings(self) -> np.ndarray:
        """Current budget ceilings in edge order; empty outside the budget schemes."""
        if self.scheme not in _BUDGET_SCHEMES:
            return np.zeros(0)
        return self.edge_state.ceiling.copy()

    def _residuals(self, theta: np.ndarray) -> ResidualPair:
        # Residuals against the neighbor means of this round and the last
        # (the first round has no last: its dual residual is 0), scaled by
        # the penalties in force; zero for a single node.
        if not len(self.sources):
            zero = np.zeros(self.graph.num_nodes)
            return ResidualPair(zero, zero)
        navg = self.graph.adjacency @ theta / self.graph.degrees[:, None]
        prev = navg if self._prev_navg is None else self._prev_navg
        self._prev_navg = navg
        return local_residuals(theta, navg, prev, self.node_etas())

    def _ranking_nodes(self, t: int, residuals: ResidualPair) -> np.ndarray:
        # Nodes, ascending, whose ranking weights the update at t reads:
        # those with an edge open under the scheme's gate, and under vp_ap
        # and vp_nap only those whose residual-balancing branch fires, since
        # elsewhere the weight multiplies nothing. fixed and vp read none.
        if self.scheme in ("fixed", "vp"):
            return np.zeros(0, dtype=int)
        rank = np.zeros(self.graph.num_nodes, dtype=bool)
        rank[self.sources[_open_edges(self.scheme, self.edge_state, t, self.cfg)]] = True
        if self.scheme in ("vp_ap", "vp_nap"):
            rank &= np.logical_or(*_branches(residuals))
        return np.flatnonzero(rank)

    def _ranking_taus(self, nodes: np.ndarray, theta, f_self, score) -> np.ndarray:
        # ``rank_weights`` of every outgoing edge of ``nodes`` at once, from
        # one ``score`` call; the other edges see a tie (all values 0) and
        # get 0.
        m = len(self.sources)
        if not len(nodes) or not m:
            return np.zeros(m)
        f_edge = np.zeros(m)
        f_edge[self.graph.out_edges(nodes)] = score(nodes, theta)
        ranked = np.zeros(self.graph.num_nodes, dtype=bool)
        ranked[nodes] = True
        f_own = np.where(ranked, f_self, 0.0)
        if not (np.all(np.isfinite(f_own)) and np.all(np.isfinite(f_edge))):
            raise ValueError("objective evaluations must be finite for penalty ranking")
        starts, src = self.graph.offsets[:-1], self.sources
        lo = np.minimum(np.minimum.reduceat(f_edge, starts), f_own)
        hi = np.maximum(np.maximum.reduceat(f_edge, starts), f_own)
        return rank_weights(f_own[src], f_edge, lo[src], hi[src])

    def update(self, t: int, theta: np.ndarray, f_self, f_prev_self, score) -> ResidualPair:
        """Run round ``t``'s penalty (and budget) phase; return the nodes' residuals.

        ``theta`` holds this round's broadcasts, one row per node, and
        ``f_self`` and ``f_prev_self`` every node's objective at its own
        parameters this round and last. The residuals (:func:`local_residuals`)
        use the neighbor means of this round and the last and the
        :meth:`node_etas` in force. ``score(nodes, theta)``, such as
        ``NodeGroup.neighbor_objectives``, gives the ascending ``nodes``'
        objectives at their edges' midpoints, in edge order. It is called
        once with exactly the nodes whose ranking weights the scheme reads,
        or not at all: never on a single node, whose residuals are zero.
        """
        res = self._residuals(theta)
        tau = self._ranking_taus(self._ranking_nodes(t, res), theta, f_self, score)
        src = self.sources
        edge_res = ResidualPair(res.primal_sq[src], res.dual_sq[src])
        self.edge_state = scheme_step(
            self.scheme, self.edge_state, t, tau, edge_res, f_self[src], f_prev_self[src], self.cfg
        )
        return res
