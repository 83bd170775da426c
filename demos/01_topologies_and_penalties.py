"""Tour of the building blocks: graphs and penalty schedulers.

Builds the three benchmark topologies, then walks directed edges through
the one penalty rule, ``scheme_step``, by hand for vp, ap and nap, so the
gate and each scheme's proposal are visible without running a full
simulation. The rule works on arrays over edges, as the scheduler calls
it; here the arrays hold one node's edges.
"""

import numpy as np

from netadmm.penalty import (
    EdgePenaltyState,
    PenaltyConfig,
    ResidualPair,
    rank_weights,
    scheme_step,
)
from netadmm.topology import build_graph

print("=== Topologies ===")
for name, n in (("complete", 6), ("ring", 6), ("cluster", 6)):
    g = build_graph(name, n)
    degrees = [g.degree(i) for i in range(n)]
    print(f"{name:9s} n={n}: degrees {degrees}, edges {g.num_undirected_edges()}")
    print(f"  neighbor lists: {dict(enumerate(g.neighbors))}")

cfg = PenaltyConfig()


def ledger(num_edges):
    """Fresh penalty and budget ledgers of ``num_edges`` directed edges."""
    return EdgePenaltyState(
        eta=np.full(num_edges, cfg.eta0),
        spent=np.zeros(num_edges),
        ceiling=np.full(num_edges, cfg.budget),
        growth_count=np.ones(num_edges, dtype=int),
    )


print(f"\n=== Residual balancing (vp), eta0={cfg.eta0}, mu={cfg.mu} ===")
state = ledger(1)
for t, (r, s) in enumerate([(5.0, 0.2), (4.0, 0.3), (0.1, 6.0), (1.0, 1.0)]):
    res = ResidualPair(np.array([r**2]), np.array([s**2]))
    state = scheme_step("vp", state, t, None, res, None, None, cfg)
    branch = "grow" if r > cfg.mu * s else ("shrink" if s > cfg.mu * r else "hold")
    print(f"t={t}: |r|={r:4.1f} |s|={s:4.1f} -> {branch:6s} eta={state.eta[0]:.2f}")
res = ResidualPair(np.array([25.0]), np.array([0.01]))
state = scheme_step("vp", state, cfg.t_max, None, res, None, None, cfg)
print(f"t={cfg.t_max} (gate closed from t_max on): eta={state.eta[0]:.2f}")

print("\n=== Objective ranking (ap) ===")
f_self = 2.0
neighbors = (1, 2, 3)
f_midpoints = np.array([1.0, 3.0, 2.0])  # own objective at each edge's midpoint
values = np.append(f_midpoints, f_self)
taus = rank_weights(f_self, f_midpoints, values.min(), values.max())
print(f"own objective {f_self}, at the midpoints {dict(zip(neighbors, f_midpoints.tolist()))}")
etas = scheme_step("ap", ledger(len(taus)), 0, taus, None, None, None, cfg).eta
for j, tau, eta in zip(neighbors, taus, etas):
    print(f"  edge ->{j}: tau={tau:+.3f}  eta={eta:.2f}")
print("better neighbors (lower objective) draw a larger penalty")

print("\n=== Spending budget (nap), budget=1, alpha=0.5, beta=0.1 ===")
state = ledger(1)
steps = [(0.6, 100.0, 50.0), (0.5, 50.0, 40.0), (0.4, 40.0, 39.9), (0.3, 39.9, 39.9)]
for tau, f_prev, f_curr in steps:
    state = scheme_step("nap", state, 0, np.array([tau]), None, f_curr, f_prev, cfg)
    print(
        f"tau={tau:+.1f} |df|/|f|={abs(f_curr-f_prev)/abs(f_prev):.3f} -> "
        f"eta={state.eta[0]:5.2f} spent={state.spent[0]:.2f} "
        f"ceiling={state.ceiling[0]:.2f} exhausted={state.exhausted[0]}"
    )
print(f"ceiling can never pass budget/(1-alpha) = {cfg.ceiling_bound}")
