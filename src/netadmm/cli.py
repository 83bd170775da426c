"""Experiment harness.

Three subcommands drive the simulator end to end:

* ``run``: one synthetic experiment; writes ``trace.csv`` and
  ``summary.json`` into the output directory.
* ``sweep``: cross product of schemes, topologies, node counts, and
  seeds; per-cell artifacts plus an aggregate comparison table
  (median iterations and subspace angles over seeds).
* ``sfm``: distributed affine factorization of a measurement-matrix
  CSV across camera nodes, scored against the centralized rank-3 SVD
  structure.

Settings come from built-in defaults, overridden by a ``key = value``
config file, overridden by command-line flags. The output directory may
also be set through the ``NETADMM_OUTPUT_DIR`` environment variable.
Exit codes: 0 converged, 2 iteration cap reached, 1 any error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data, engine, metrics, ppca
from .penalty import SCHEMES, PenaltyConfig
from .topology import TOPOLOGIES

__all__ = ["ExperimentConfig", "cmd_run", "cmd_sweep", "cmd_sfm", "main"]

OUTPUT_DIR_ENV = "NETADMM_OUTPUT_DIR"
SFM_LATENT_DIM = 3  # affine structure from motion factorizes into 3-D structure


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved settings of a run, sweep, or factorization."""

    # single-run selection
    scheme: str = "fixed"
    topology: str = "complete"
    num_nodes: int = 20
    seed: int = 1
    # stopping
    max_iterations: int = 300
    convergence_tol: float = 1e-3
    # penalty scheme knobs
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
    # synthetic data
    num_samples: int = 500
    ambient_dim: int = 20
    latent_dim: int = 5
    noise_variance: float = 0.2
    data_seed: int = 0
    # measurement ingestion (sfm)
    measurements: str | None = None
    # sweep lists (None = sweep over the single value above)
    schemes: tuple[str, ...] | None = None
    topologies: tuple[str, ...] | None = None
    node_counts: tuple[int, ...] | None = None
    seeds: tuple[int, ...] | None = None
    angle_filter_deg: float | None = None
    # execution
    output_dir: str = "runs"
    jobs: int = 1

    def penalty_config(self) -> PenaltyConfig:
        return PenaltyConfig(
            eta0=self.eta0,
            mu=self.mu,
            tau_fixed=self.tau_fixed,
            t_max=self.t_max,
            t_reset=self.t_reset,
            budget=self.budget,
            alpha=self.alpha,
            beta=self.beta,
            f_tie_epsilon=self.f_tie_epsilon,
            eval_point=self.eval_point,
            relative_beta=self.relative_beta,
        )

    def run_config(self) -> engine.RunConfig:
        return engine.RunConfig(
            topology=self.topology,
            num_nodes=self.num_nodes,
            scheme=self.scheme,
            penalty=self.penalty_config(),
            max_iterations=self.max_iterations,
            convergence_tol=self.convergence_tol,
            seed=self.seed,
        )

    def synthetic_spec(self) -> data.SyntheticSpec:
        return data.SyntheticSpec(
            num_samples=self.num_samples,
            ambient_dim=self.ambient_dim,
            latent_dim=self.latent_dim,
            noise_variance=self.noise_variance,
            seed=self.data_seed,
        )

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _coerce(key: str, text: str):
    """Parse a raw config-file value into the field's declared type."""
    text = text.strip()
    if key in ("schemes", "topologies"):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if key in ("node_counts", "seeds"):
        return tuple(int(part) for part in text.split(",") if part.strip())
    if key in ("t_reset", "angle_filter_deg", "measurements") and text.lower() in ("none", ""):
        return None
    kind = _FIELD_TYPES[key]
    if kind in ("int", int) or key == "t_reset":
        return int(text)
    if kind in ("float", float) or key == "angle_filter_deg":
        return float(text)
    if kind in ("bool", bool):
        return _parse_bool(text)
    return text


def load_config_file(path: str | Path) -> dict:
    """Read ``key = value`` lines; unknown keys are rejected by name."""
    overrides: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        overrides[key] = _coerce(key, value)
    return overrides


def resolve_config(
    args: argparse.Namespace, command_defaults: dict | None = None
) -> ExperimentConfig:
    """Command defaults, then config file, then explicit command-line flags."""
    overrides: dict = dict(command_defaults or {})
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    for key in _FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if "output_dir" not in overrides and os.environ.get(OUTPUT_DIR_ENV):
        overrides["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    return ExperimentConfig(**overrides)


def _write_json(obj: dict, path: Path) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _budget_summary(result: engine.RunResult) -> dict | None:
    ceilings = result.scheduler.budget_ceilings()
    if not ceilings:
        return None
    return {
        "ceilings": {f"{i}->{j}": c for (i, j), c in sorted(ceilings.items())},
        "max_ceiling": max(ceilings.values()),
        "exhausted_edges": result.scheduler.exhausted_edges(),
    }


def _run_and_write(cfg: ExperimentConfig, shards, reference: np.ndarray, out_dir: Path, **extra) -> dict:
    """Run D-PPCA on ``shards``; write and return the summary and write the trace.

    The summary scores every node's basis against ``reference`` and adds ``extra``.
    """
    result = engine.run(cfg.run_config(), ppca.make_dppca_factory(cfg.latent_dim), shards)
    bases = [model.params.W for model in result.models]
    summary = engine.run_summary(cfg.echo(), result)
    summary.update(metrics.run_report(result.records, bases, reference))
    summary["seed"] = cfg.seed
    summary.update(extra)
    budget = _budget_summary(result)
    if budget is not None:
        summary["budget"] = budget
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_trace_csv(result.records, out_dir / "trace.csv")
    _write_json(summary, out_dir / "summary.json")
    return summary


def execute_synthetic_run(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Run one synthetic experiment and write its artifacts.

    Returns the summary dictionary (also written to ``summary.json``).
    """
    observations, ground_truth = data.generate_synthetic(cfg.synthetic_spec())
    shards = data.partition_even(observations, cfg.num_nodes)
    return _run_and_write(cfg, shards, ground_truth, out_dir)


def cmd_run(cfg: ExperimentConfig) -> int:
    summary = execute_synthetic_run(cfg, Path(cfg.output_dir))
    print(
        f"{cfg.scheme} on {cfg.topology}({cfg.num_nodes}), seed {cfg.seed}: "
        f"{summary['iterations']} iterations, "
        f"max angle {summary['max_angle_deg']:.2f} deg, "
        f"consensus gap {summary['consensus_gap_deg']:.2f} deg, "
        f"converged={summary['converged']}"
    )
    return 0 if summary["converged"] else 2


def _cell_dir(root: Path, scheme: str, topology: str, n: int, seed: int) -> Path:
    return root / f"{scheme}_{topology}_n{n}_seed{seed}"


def _sweep_list(name: str, explicit, fallback) -> tuple:
    if explicit is None:
        return (fallback,)
    if len(explicit) == 0:
        raise ValueError(f"{name} list must not be empty")
    return explicit


def cmd_sweep(cfg: ExperimentConfig) -> int:
    schemes = _sweep_list("schemes", cfg.schemes, cfg.scheme)
    topologies = _sweep_list("topologies", cfg.topologies, cfg.topology)
    node_counts = _sweep_list("node_counts", cfg.node_counts, cfg.num_nodes)
    seeds = _sweep_list("seeds", cfg.seeds, cfg.seed)

    root = Path(cfg.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    cells = [
        replace(
            cfg,
            scheme=scheme,
            topology=topology,
            num_nodes=n,
            seed=seed,
            output_dir=str(_cell_dir(root, scheme, topology, n, seed)),
        )
        for scheme in schemes
        for topology in topologies
        for n in node_counts
        for seed in seeds
    ]

    outcomes: dict[tuple, dict] = {}

    def note(cell, payload):
        outcomes[(cell.scheme, cell.topology, cell.num_nodes, cell.seed)] = payload

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for cell, res in zip(cells, pool.map(_sweep_cell_safe, cells)):
                note(cell, res)
    else:
        for cell in cells:
            note(cell, _sweep_cell_safe(cell))

    rows = []
    for scheme in schemes:
        for topology in topologies:
            for n in node_counts:
                group = [outcomes[(scheme, topology, n, s)] for s in seeds]
                reports = [g for g in group if "error" not in g]
                errors = [g["error"] for g in group if "error" in g]
                row: dict = {"scheme": scheme, "topology": topology, "num_nodes": n}
                if reports:
                    row.update(
                        metrics.aggregate_reports(reports, cfg.angle_filter_deg)
                    )
                row["errors"] = errors
                rows.append(row)

    _write_json({"config": cfg.echo(), "cells": rows}, root / "comparison.json")
    _write_comparison_csv(rows, root / "comparison.csv")
    for row in rows:
        label = f"{row['scheme']:8s} {row['topology']:9s} n={row['num_nodes']}"
        if "median_iterations" in row:
            print(
                f"{label}: median {row['median_iterations']} iterations, "
                f"median max angle {row['median_max_angle_deg']:.2f} deg"
            )
        else:
            print(f"{label}: all runs failed ({'; '.join(row['errors'])})")
    return 0


def _sweep_cell_safe(cell: ExperimentConfig) -> dict:
    try:
        return execute_synthetic_run(cell, Path(cell.output_dir))
    except (ValueError, engine.DivergenceError, np.linalg.LinAlgError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _write_comparison_csv(rows: list[dict], path: Path) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "scheme",
                "topology",
                "num_nodes",
                "runs",
                "median_iterations",
                "median_max_angle_deg",
                "all_converged",
                "errors",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row["scheme"],
                    row["topology"],
                    row["num_nodes"],
                    row.get("runs", 0),
                    row.get("median_iterations", ""),
                    format(row["median_max_angle_deg"], ".12g")
                    if "median_max_angle_deg" in row
                    else "",
                    row.get("all_converged", ""),
                    "; ".join(row["errors"]),
                ]
            )
    os.replace(tmp, path)


def svd_structure_basis(values: np.ndarray, rank: int = SFM_LATENT_DIM) -> np.ndarray:
    """Centralized oracle: structure subspace of a measurement matrix.

    Rows (one per frame coordinate) are centered over the points, and the
    top right singular vectors of the centered matrix span the recovered
    structure in point space.
    """
    centered = values - values.mean(axis=1, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[:rank].T


def cmd_sfm(cfg: ExperimentConfig) -> int:
    if not cfg.measurements:
        raise ValueError("measurements file is required (flag --measurements)")
    cfg = replace(cfg, latent_dim=SFM_LATENT_DIM)
    mm = data.load_measurements(cfg.measurements)
    shards = data.sfm_node_shards(mm, cfg.num_nodes)
    summary = _run_and_write(
        cfg,
        shards,
        svd_structure_basis(mm.values),
        Path(cfg.output_dir),
        measurements={
            "path": str(cfg.measurements),
            "num_frames": mm.num_frames,
            "num_points": mm.num_points,
        },
    )
    print(
        f"sfm {cfg.scheme} on {cfg.topology}({cfg.num_nodes}): "
        f"{summary['iterations']} iterations, "
        f"max angle vs SVD structure {summary['max_angle_deg']:.2f} deg"
    )
    return 0 if summary["converged"] else 2


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--scheme", choices=SCHEMES)
    parser.add_argument("--topology", choices=TOPOLOGIES)
    parser.add_argument("--nodes", dest="num_nodes", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-iterations", dest="max_iterations", type=int)
    parser.add_argument("--tol", dest="convergence_tol", type=float)
    parser.add_argument("--eta0", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--tau-fixed", dest="tau_fixed", type=float)
    parser.add_argument("--t-max", dest="t_max", type=int)
    parser.add_argument("--t-reset", dest="t_reset", type=int)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--tie-epsilon", dest="f_tie_epsilon", type=float)
    parser.add_argument("--eval-point", dest="eval_point", choices=("neighbor", "midpoint"))
    parser.add_argument(
        "--relative-beta", dest="relative_beta", type=_parse_bool, metavar="BOOL"
    )
    parser.add_argument("--samples", dest="num_samples", type=int)
    parser.add_argument("--ambient-dim", dest="ambient_dim", type=int)
    parser.add_argument("--latent-dim", dest="latent_dim", type=int)
    parser.add_argument("--noise-variance", dest="noise_variance", type=float)
    parser.add_argument("--data-seed", dest="data_seed", type=int)
    parser.add_argument("--output-dir", dest="output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netadmm",
        description="Consensus-ADMM experiments with adaptive penalty schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single synthetic experiment")
    _add_common_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="scheme/topology/size/seed grid")
    _add_common_flags(p_sweep)
    p_sweep.add_argument(
        "--schemes", type=lambda s: tuple(x.strip() for x in s.split(",") if x.strip())
    )
    p_sweep.add_argument(
        "--topologies",
        type=lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
    )
    p_sweep.add_argument(
        "--node-counts",
        dest="node_counts",
        type=lambda s: tuple(int(x) for x in s.split(",") if x.strip()),
    )
    p_sweep.add_argument(
        "--seeds", type=lambda s: tuple(int(x) for x in s.split(",") if x.strip())
    )
    p_sweep.add_argument("--jobs", type=int)
    p_sweep.add_argument("--angle-filter", dest="angle_filter_deg", type=float)

    p_sfm = sub.add_parser("sfm", help="distributed affine factorization of a CSV")
    _add_common_flags(p_sfm)
    p_sfm.add_argument("--measurements", help="CSV of 2F x N tracked coordinates")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Five cameras on a complete graph is the factorization default.
    command_defaults = {"num_nodes": 5} if args.command == "sfm" else None
    try:
        cfg = resolve_config(args, command_defaults)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_sfm(cfg)
    except (ValueError, OSError, engine.DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
