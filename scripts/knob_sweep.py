"""Iterations to the oracle under each setting of the penalty knobs.

The data is the protocol's: data seed 0, 500 x 20 samples in 20 nodes,
M = 5, run seeds 1-5, no stopping rule (``convergence_tol=1e-300``). A
cell's value is the first iteration count after which every node's W is
within 0.5 degrees of the oracle, the top five eigenvectors of the pooled
covariance (``metrics.subspace_angle``); ``>cap`` when no iteration up to
the cap gets there, and ``error`` when the run raises. Two graphs:
complete(20) at eta0 = 10 with a cap of 150, and ring(20) at eta0 = 320
with a cap of 400, above ring(20)'s consensus threshold.

Each knob's settings run only on the schemes that read it. A knob's
decision keeps the default unless the other setting beats it on every
(scheme, graph) cell, median against median, by more than the default's
seed IQR (a run that misses the cap counts as cap + 1). The last table
gives every scheme's default runs: their iterations, and the smallest
and largest edge penalty up to the cap.

``eval_point``, ``relative_beta`` and ``f_tie_epsilon`` were
``PenaltyConfig`` fields before the knob removal; in a checkout without
them their rows read ``removed``. The ``vp`` reset rows set ``t_max``,
which is ``vp``'s reset iteration (formerly ``t_reset``, which defaulted
to ``t_max``). Run::

    python scripts/knob_sweep.py [--src SRC_DIR]

``--src`` puts another checkout's ``src`` first on the import path, so
the same script measures an older commit. It takes about three minutes
on one core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

RANKING = ("ap", "nap", "vp_ap", "vp_nap")
# knob -> (schemes that read it, ((label, PenaltyConfig changes), ...)), default first
KNOBS = {
    "eval_point": (RANKING, (("midpoint", {}), ("neighbor", {"eval_point": "neighbor"}))),
    "relative_beta": (("nap", "vp_nap"), (("relative", {}), ("absolute", {"relative_beta": False}))),
    "f_tie_epsilon": (RANKING, (("1e-12", {}), ("1e-9", {"f_tie_epsilon": 1e-9}))),
    "vp reset (t_max)": (("vp",), (("50", {}), ("20", {"t_max": 20}), ("100", {"t_max": 100}))),
}
GRAPHS = (("complete", 10.0, 150), ("ring", 320.0, 400))
SEEDS = (1, 2, 3, 4, 5)
NODES, LATENT, TOLERANCE_DEG = 20, 5, 0.5


class Sweep:
    """Runs of the protocol data, each made once and kept by its settings."""

    def __init__(self, nd):
        import numpy as np

        self.nd, self.np = nd, np
        observations, _ = nd.data.generate_synthetic(nd.data.SyntheticSpec())
        self.shards = nd.data.partition_even(observations, NODES)
        self.oracle = np.linalg.eigh(np.cov(observations))[1][:, -LATENT:]
        self.cache: dict = {}

    def run(self, scheme: str, graph: tuple, changes: dict, seed: int):
        """(iterations to the oracle or None, eta_min, eta_max), or None for an error,
        or the string ``removed`` when this checkout has no such field."""
        key = (scheme, graph, tuple(sorted(changes.items())), seed)
        if key not in self.cache:
            self.cache[key] = self._run(scheme, graph, changes, seed)
        return self.cache[key]

    def _run(self, scheme, graph, changes, seed):
        nd = self.nd
        topology, eta0, cap = graph
        try:
            penalty = nd.penalty.PenaltyConfig(eta0=eta0, **changes)
        except TypeError:
            return "removed"
        cfg = nd.engine.RunConfig(
            topology=topology, num_nodes=NODES, scheme=scheme, penalty=penalty,
            max_iterations=cap, convergence_tol=1e-300, seed=seed,
        )
        reached: list[int] = []

        def hook(t, scheduler, models):
            if not reached:
                bases = models[0]._nodes.params.W
                if max(nd.metrics.subspace_angle(w, self.oracle) for w in bases) < TOLERANCE_DEG:
                    reached.append(t + 1)

        try:
            result = nd.engine.run(cfg, nd.ppca.make_dppca_factory(LATENT), self.shards, hook)
        except (ValueError, ArithmeticError, nd.engine.DivergenceError, self.np.linalg.LinAlgError):
            return None
        records = result.records
        return (
            reached[0] if reached else None,
            min(r.eta_min for r in records),
            max(r.eta_max for r in records),
        )


def _cell(runs, cap: int) -> str:
    if "removed" in runs:
        return "removed"
    return ",".join("error" if r is None else f">{cap}" if r[0] is None else str(r[0]) for r in runs)


def _censored(runs, cap: int) -> list[float]:
    # Iterations with a miss (or an error) counted as cap + 1.
    return [cap + 1.0 if r is None or r[0] is None else float(r[0]) for r in runs]


def knob_table(sweep: Sweep) -> list[str]:
    np = sweep.np
    lines = ["| knob | graph | scheme | iterations per run seed, by setting |", "| --- | --- | --- | --- |"]
    decisions = []
    for knob, (schemes, settings) in KNOBS.items():
        wins = {label: True for label, _ in settings[1:]}
        for graph in GRAPHS:
            cap = graph[2]
            for scheme in schemes:
                runs = {label: [sweep.run(scheme, graph, ch, s) for s in SEEDS] for label, ch in settings}
                cells = "; ".join(f"{label} {_cell(r, cap)}" for label, r in runs.items())
                lines.append(f"| `{knob}` | {graph[0]} | {scheme} | {cells} |")
                default = _censored(runs[settings[0][0]], cap)
                q1, median, q3 = np.percentile(default, [25, 50, 75])
                for label, _ in settings[1:]:
                    if "removed" in runs[label]:
                        wins[label] = False
                        continue
                    other = np.median(_censored(runs[label], cap))
                    wins[label] &= bool(other < median - (q3 - q1))
        winners = [label for label, won in wins.items() if won]
        decisions.append(
            f"- `{knob}`: "
            + (f"{', '.join(winners)} beats the default {settings[0][0]} on every cell"
               if winners else f"the default {settings[0][0]} stays")
        )
    return lines + [""] + decisions


def default_table(sweep: Sweep) -> list[str]:
    lines = ["| scheme | " + " | ".join(f"{t}(20), eta0 = {e:g}" for t, e, _ in GRAPHS) + " |",
             "| --- |" + " --- |" * len(GRAPHS)]
    for scheme in ("fixed", "vp", *RANKING):
        cells = []
        for graph in GRAPHS:
            runs = [sweep.run(scheme, graph, {}, s) for s in SEEDS]
            ok = [r for r in runs if r is not None]
            lo, hi = min(r[1] for r in ok), max(r[2] for r in ok)
            cells.append(f"{_cell(runs, graph[2])}; eta {lo:.3g} to {hi:.4g}")
        lines.append(f"| {scheme} | " + " | ".join(cells) + " |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="import netadmm from this src directory")
    args = parser.parse_args(argv)
    src = args.src if args.src is not None else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import netadmm as nd

    sweep = Sweep(nd)
    print("\n".join(knob_table(sweep) + [""] + default_table(sweep)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
