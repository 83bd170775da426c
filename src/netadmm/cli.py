"""Experiment harness.

Three subcommands drive the simulator end to end:

* ``run``: one synthetic experiment; writes ``trace.csv`` and
  ``summary.json`` into the output directory.
* ``sweep``: cross product of the grid keys ``scheme``, ``topology``,
  ``num_nodes`` and ``seed``, each a comma list; per-cell artifacts plus
  an aggregate comparison table (median iterations and subspace angles
  over seeds).
* ``sfm``: distributed affine factorization of a measurement-matrix
  CSV across camera nodes, scored against the centralized rank-3 SVD
  structure.

Settings come from built-in defaults, overridden by a ``key = value``
config file, overridden by command-line flags. The keys are the fields
of ``engine.RunConfig``, ``penalty.PenaltyConfig`` and
``data.SyntheticSpec`` (its seed as ``data_seed``) plus the command's
own settings in ``ExperimentConfig``. A command takes the keys that it
reads (``sfm`` takes no synthetic-data key), each as a config-file line
and as a flag, spelled with dashes or by the short spelling in
``FLAG_ALIASES``, and its summaries echo them. The output
directory may also be set through the ``NETADMM_OUTPUT_DIR`` environment
variable. Exit codes: 0 converged, 2 iteration cap reached, 1 any error,
usage errors included, or a run that diverged or failed mid-run.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import data, engine, metrics, ppca

__all__ = ["ExperimentConfig", "SETTINGS", "cmd_run", "cmd_sweep", "cmd_sfm", "main"]

OUTPUT_DIR_ENV = "NETADMM_OUTPUT_DIR"
SFM_LATENT_DIM = 3  # affine structure from motion factorizes into 3-D structure
GRID = ("scheme", "topology", "num_nodes", "seed")  # sweep's axes, seeds varying fastest
COMPARISON_COLUMNS = (
    "scheme",
    "topology",
    "num_nodes",
    "runs",
    "median_iterations",
    "median_max_angle_deg",
    "worst_max_angle_deg",
    "all_converged",
    "errors",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved settings of a run, sweep, or factorization."""

    run: engine.RunConfig = engine.RunConfig(num_nodes=20, seed=1)
    # sfm reads its data from ``measurements`` and takes no synthetic-data key
    synthetic: data.SyntheticSpec = field(
        default=data.SyntheticSpec(), metadata={"commands": ("run", "sweep")}
    )
    # measurement ingestion (sfm)
    measurements: str | None = field(default=None, metadata={"commands": ("sfm",)})
    # execution
    output_dir: str = "runs"
    jobs: int = field(default=1, metadata={"commands": ("sweep",)})

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def echo(self, command: str) -> dict:
        """The settings that ``command`` takes, as one flat ``key: value`` dictionary."""
        return {key: reduce(getattr, SETTINGS[key].path, self) for key in _keys(command)}


class Setting(NamedTuple):
    """One config key: where its field sits and how to read its value."""

    path: tuple[str, ...]  # attribute names from ExperimentConfig down to the field
    parse: Callable[[str], object]
    commands: tuple[str, ...] | None  # the subcommands that take it, if not all


# Keys are field names; this one would clash with RunConfig.seed.
_KEY_RENAMES = {("synthetic", "seed"): "data_seed"}
FLAG_ALIASES = {
    "num_nodes": "--nodes",
    "convergence_tol": "--tol",
    "num_samples": "--samples",
}


def _value_parser(kind) -> Callable[[str], object]:
    """Parse text into a value of the annotated type.

    ``X | None`` also takes ``none`` or an empty value.
    """
    args = typing.get_args(kind)
    if type(None) not in args:
        return kind
    (inner,) = (arg for arg in args if arg is not type(None))

    def parse_optional(text: str):
        return None if text.strip().lower() in ("none", "") else inner(text)

    return parse_optional


def _settings(cls, prefix: tuple[str, ...] = (), commands=None) -> Iterator[tuple[str, Setting]]:
    # A nested config's fields inherit its commands.
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        path, kind = prefix + (f.name,), hints[f.name]
        field_commands = f.metadata.get("commands", commands)
        if dataclasses.is_dataclass(kind):
            yield from _settings(kind, path, field_commands)
        else:
            key = _KEY_RENAMES.get(path, f.name)
            yield key, Setting(path, _value_parser(kind), field_commands)


SETTINGS: dict[str, Setting] = dict(_settings(ExperimentConfig))


def _list_parser(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse_list(text: str) -> tuple:
        return tuple(parse(part.strip()) for part in text.split(",") if part.strip())

    parse_list.__name__ = parse.__name__  # argparse's errors name the type by it
    return parse_list


def _keys(command: str) -> dict[str, Callable[[str], object]]:
    """The keys that ``command`` takes, each with its parser.

    Flags, config-file lines and the summary's ``config`` all read it.
    Under ``sweep`` each grid key takes a comma list.
    """
    return {
        key: _list_parser(setting.parse) if command == "sweep" and key in GRID else setting.parse
        for key, setting in SETTINGS.items()
        if setting.commands is None or command in setting.commands
    }


def _replace_nested(obj, changes: dict):
    return replace(
        obj,
        **{
            name: _replace_nested(getattr(obj, name), value) if isinstance(value, dict) else value
            for name, value in changes.items()
        },
    )


def _with_settings(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    """``cfg`` with flat ``key: value`` settings applied.

    Each nested config is rebuilt once with all of its changes, so its
    own validation sees the final values.
    """
    changes: dict = {}
    for key, value in values.items():
        *outer, name = SETTINGS[key].path
        node = changes
        for part in outer:
            node = node.setdefault(part, {})
        node[name] = value
    return _replace_nested(cfg, changes)


def load_config_file(path: str | Path, command: str) -> dict:
    """Read ``key = value`` lines of ``command``'s keys; errors name the file, line and key."""
    keys = _keys(command)
    overrides: dict = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown {command} config key {key!r}")
        try:
            overrides[key] = keys[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return overrides


def resolve_config(
    args: argparse.Namespace, command_defaults: dict | None = None
) -> tuple[ExperimentConfig, dict]:
    """Command defaults, then config file, then explicit command-line flags.

    Returns the config and the grid: under ``sweep``, each grid key given,
    with its list of values; the config holds every other key.
    """
    overrides: dict = dict(command_defaults or {})
    if args.config:
        overrides.update(load_config_file(args.config, args.command))
    for key in _keys(args.command):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    if "output_dir" not in overrides and os.environ.get(OUTPUT_DIR_ENV):
        overrides["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    grid = {key: overrides.pop(key) for key in GRID if args.command == "sweep" and key in overrides}
    return _with_settings(ExperimentConfig(), overrides), grid


def _run_and_write(
    cfg: ExperimentConfig, command: str, latent_dim: int, shards, reference: np.ndarray, **extra
) -> dict:
    """Run D-PPCA with ``latent_dim`` on ``shards`` and write its artifacts however it ended.

    The summary returned is :func:`metrics.run_report`'s, scored against
    ``reference`` and echoing the keys of ``command``, plus ``extra``.
    """
    result = engine.run(cfg.run, ppca.make_dppca_factory(latent_dim), shards)
    summary = {**metrics.run_report(result, reference, cfg.echo(command)), **extra}
    metrics.write_run(Path(cfg.output_dir), result, summary)
    return summary


def execute_synthetic_run(cfg: ExperimentConfig) -> dict:
    """Run one synthetic experiment and write its artifacts.

    Returns the summary dictionary (also written to ``summary.json``).
    """
    observations, ground_truth = data.generate_synthetic(cfg.synthetic)
    shards = data.partition_even(observations, cfg.run.num_nodes)
    return _run_and_write(cfg, "run", cfg.synthetic.latent_dim, shards, ground_truth)


def _failed(summary: dict) -> bool:
    """Whether the run diverged or failed mid-run (its summary then has a message and no angles)."""
    return summary["outcome"] not in ("converged", "cap")


def _finish(cfg: ExperimentConfig, summary: dict, line: str) -> int:
    """The exit code of a ``run`` or ``sfm``, after its one line of output.

    A run that diverged or failed prints its message and exits 1. Any other
    prints ``line``, formatted with the summary's keys and ``run``, the
    run's settings, and exits 0 if it converged or 2 at the iteration cap.
    """
    if _failed(summary):
        print(f"error: {summary['message']}", file=sys.stderr)
        return 1
    print(line.format(run=cfg.run, **summary))
    return 0 if summary["converged"] else 2


def cmd_run(cfg: ExperimentConfig) -> int:
    summary = execute_synthetic_run(cfg)
    return _finish(
        cfg,
        summary,
        "{run.scheme} on {run.topology}({run.num_nodes}), seed {run.seed}: "
        "{iterations} iterations, max angle {max_angle_deg:.2f} deg, "
        "consensus gap {consensus_gap_deg:.2f} deg, converged={converged}",
    )


def _cell_dir(root: Path, scheme: str, topology: str, n: int, seed: int) -> Path:
    return root / f"{scheme}_{topology}_n{n}_seed{seed}"


def _sweep_list(key: str, values: tuple) -> tuple:
    if not values:
        raise ValueError(f"{key} list must not be empty")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{key} list repeats {value!r}")
    return values


def cmd_sweep(cfg: ExperimentConfig, grid: dict) -> int:
    """Run the cells of ``grid``'s lists; a grid key not in it sweeps its one value in ``cfg``."""
    echo = cfg.echo("sweep")
    axes = {key: _sweep_list(key, grid[key]) if key in grid else (echo[key],) for key in GRID}

    # Building every cell first validates each one's RunConfig, so a value
    # that no run accepts fails the sweep before any cell runs.
    root = Path(cfg.output_dir)
    cells = [
        _with_settings(cfg, dict(zip(GRID, values), output_dir=str(_cell_dir(root, *values))))
        for values in itertools.product(*axes.values())
    ]
    root.mkdir(parents=True, exist_ok=True)

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_sweep_cell_safe, cells))
    else:
        results = [_sweep_cell_safe(cell) for cell in cells]

    # Seeds, the last axis, vary fastest, so each row's cells are consecutive.
    rows = []
    seeds = len(axes["seed"])
    for start in range(0, len(cells), seeds):
        run, group = cells[start].run, results[start : start + seeds]
        row: dict = {"scheme": run.scheme, "topology": run.topology, "num_nodes": run.num_nodes}
        row.update(metrics.aggregate_reports([g for g in group if "error" not in g]))
        row["errors"] = [g["error"] for g in group if "error" in g]
        rows.append(row)

    # The config echoes each grid key as the list that was swept.
    metrics.write_artifact(root / "comparison.json", {"config": {**echo, **axes}, "cells": rows})
    aggregates = COMPARISON_COLUMNS[4:-1]  # absent from a row whose every cell failed
    table = [
        [row["scheme"], row["topology"], row["num_nodes"], row["runs"]]
        + [row.get(key, "") for key in aggregates]
        + ["; ".join(row["errors"])]
        for row in rows
    ]
    metrics.write_artifact(root / "comparison.csv", [COMPARISON_COLUMNS, *table])
    for row in rows:
        label = f"{row['scheme']:8s} {row['topology']:9s} n={row['num_nodes']}"
        if "median_iterations" in row:
            print(
                f"{label}: median {row['median_iterations']} iterations, "
                f"median max angle {row['median_max_angle_deg']:.2f} deg, "
                f"worst {row['worst_max_angle_deg']:.2f} deg"
            )
        else:
            print(f"{label}: all runs failed ({'; '.join(row['errors'])})")
    return 0


def _sweep_cell_safe(cell: ExperimentConfig) -> dict:
    # The cell's summary, or its error; a run that diverged or failed
    # mid-run has written its artifacts.
    try:
        summary = execute_synthetic_run(cell)
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"error": summary["message"]} if _failed(summary) else summary


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
    mm = data.load_measurements(cfg.measurements)
    shards = data.sfm_node_shards(mm, cfg.run.num_nodes)
    summary = _run_and_write(
        cfg, "sfm", SFM_LATENT_DIM, shards, svd_structure_basis(mm.values),
        measurements={"num_frames": mm.num_frames, "num_points": mm.num_points},
    )
    return _finish(
        cfg,
        summary,
        "sfm {run.scheme} on {run.topology}({run.num_nodes}): {iterations} iterations, "
        "max angle vs SVD structure {max_angle_deg:.2f} deg",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error: exit code 2 means the iteration cap was reached."""

    def error(self, message: str) -> typing.NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="netadmm",
        description="Consensus-ADMM experiments with adaptive penalty schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("run", "single synthetic experiment"),
        ("sweep", "scheme/topology/size/seed grid"),
        ("sfm", "distributed affine factorization of a CSV"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value config file")
        for key, parse in _keys(command).items():
            flag = FLAG_ALIASES.get(key, "--" + key.replace("_", "-"))
            p.add_argument(flag, dest=key, type=parse)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Five cameras on a complete graph is the factorization default.
    command_defaults = {"num_nodes": 5} if args.command == "sfm" else None
    try:
        cfg, grid = resolve_config(args, command_defaults)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, grid)
        return cmd_sfm(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
