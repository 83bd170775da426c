"""Consensus ADMM with adaptive per-edge penalties.

A numpy library plus a round-synchronous simulator for decentralized
optimization over small networks: benchmark topologies, six penalty
schedulers (fixed, residual-balancing, objective-ranking, budgeted, and
their combinations), a distributed probabilistic PCA model with a
centralized EM oracle, synthetic data and measurement-matrix loaders,
and subspace-angle evaluation.
"""

import importlib

from . import data, engine, metrics, penalty, ppca, topology

__all__ = ["cli", "data", "engine", "metrics", "penalty", "ppca", "topology"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # The command line loads on first use, so importing the library does
    # not compile it.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
