"""Command-line experiment runner.

Subcommands:
  run             execute a parareal experiment, write the error trace as CSV
  factors         tabulate analytic contraction factors as CSV
  solution-field  sequential fine solve sampled on the space-time grid
  presets         list the named experiment and field presets

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

from .core import MAX_RUN_VALUES, ConfigError, IterationTrace, NumericalError
from .factors import DEFAULT_MODES, DEFAULT_SLICES, factor_grid
from .parareal import reference_fine_sequential
from .parareal import run as run_parareal
from .presets import (
    ExperimentConfig,
    build_parareal,
    experiment_preset,
    experiment_preset_names,
    field_preset,
    field_preset_names,
    load_config,
    read_ini,
    with_iterations,
    without_coarse,
)

TRACE_HEADER = "# pitkit trace v1"
FACTORS_HEADER = "# pitkit factors v1"
FIELD_HEADER = "# pitkit field v1"


def _fmt(value: float) -> str:
    return repr(float(value))


def _header_lines(pairs: dict[str, str]) -> list[str]:
    return [f"# {key} = {pairs[key]}" for key in sorted(pairs)]


def render_trace(trace: IterationTrace, config: ExperimentConfig) -> str:
    pairs = config.echo()
    pairs["trace.norm"] = "discrete_l2"
    pairs["trace.initial_guess"] = trace.initial_guess
    lines = [TRACE_HEADER]
    lines.extend(_header_lines(pairs))
    lines.append("k,n,error_l2,bound,wall_time_ms")
    for k, row in enumerate(trace.errors.tolist()):
        bound = "" if trace.bounds[k] is None else _fmt(trace.bounds[k])
        wall = _fmt(trace.wall_time_ms[k] if config.timings else 0.0)
        lines.extend(f"{k},{n},{_fmt(err)},{bound},{wall}" for n, err in enumerate(row))
    return "\n".join(lines) + "\n"


def _check_out(out: Optional[str]) -> None:
    """Fail before any computation when --out's directory is missing or
    --out is a directory.  The file itself is created only once its text
    is ready, so a failed run leaves none behind."""
    if out is None:
        return
    directory = os.path.dirname(out) or os.curdir
    if not os.path.isdir(directory):
        raise ConfigError(f"--out: cannot write {out}: no directory {directory}")
    if os.path.isdir(out):
        raise ConfigError(f"--out: cannot write {out}: it is a directory")


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out}: {exc}") from exc


def _load_experiment(args) -> ExperimentConfig:
    if args.preset is not None:
        config = experiment_preset(args.preset)
    elif args.config is not None:
        config = load_config(args.config)
    else:
        config = ExperimentConfig()
    if args.no_coarse:
        config = without_coarse(config)
    if args.iterations is not None:
        config = with_iterations(config, args.iterations)
    return config


def cmd_run(args) -> int:
    config = _load_experiment(args)
    _check_out(args.out)
    trace = run_parareal(build_parareal(config))
    _write(render_trace(trace, config), args.out)
    return 0


_FACTOR_KINDS = {"factors.m_min": int, "factors.m_max": int,
                 "factors.dts": "floats", "factors.length": float}


def _parse_factor_config(path: Optional[str]):
    values = {} if path is None else read_ini(path, _FACTOR_KINDS)
    m_min = values.get("factors.m_min", DEFAULT_MODES[0])
    m_max = values.get("factors.m_max", DEFAULT_MODES[-1])
    dts = values.get("factors.dts", DEFAULT_SLICES)
    length = values.get("factors.length", math.pi)
    if m_min > m_max:
        raise ConfigError(f"factors: the mode range m_min = {m_min} .. m_max = {m_max} is empty")
    if m_min < 1:
        raise ConfigError("factors.m_min: sine modes start at 1, the zero mode never contracts")
    if not dts or any(dt <= 0.0 for dt in dts):
        raise ConfigError("factors.dts: need a nonempty list of positive slice lengths")
    if length <= 0.0:
        raise ConfigError(f"factors.length: must be positive, got {length}")
    if (m_max - m_min + 1) * len(dts) > MAX_RUN_VALUES:
        raise ConfigError(f"factors.m_max: {m_max - m_min + 1} modes x {len(dts)} slice lengths exceed "
                          f"the limit of {MAX_RUN_VALUES} rows a table may hold")
    return tuple(range(m_min, m_max + 1)), dts, length


def cmd_factors(args) -> int:
    modes, dts, length = _parse_factor_config(args.config)
    pairs = {
        "factors.m_min": str(modes[0]),
        "factors.m_max": str(modes[-1]),
        "factors.dts": " ".join(_fmt(dt) for dt in dts),
        "factors.length": _fmt(length),
        "factors.stability": "backward_euler",
    }
    lines = [FACTORS_HEADER]
    lines.extend(_header_lines(pairs))
    lines.append("m,dT,rho_nocoarse,rho_coarse")
    for m, dt, nc, wc in factor_grid(modes, dts, length):
        lines.append(f"{m},{_fmt(dt)},{_fmt(nc)},{_fmt(wc)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_solution_field(args) -> int:
    config = field_preset(args.preset)
    _check_out(args.out)
    parareal = build_parareal(config)
    grid_x = parareal.fine.model.grid_x
    lines = [FIELD_HEADER, *_header_lines(config.echo()), "x,t,u"]
    rows = reference_fine_sequential(parareal)
    for t, row in zip(parareal.partition.boundaries, rows):
        lines.extend(f"{_fmt(x)},{_fmt(t)},{_fmt(u)}" for x, u in zip(grid_x, row))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_presets(args) -> int:
    lines = ["experiment presets (run --preset NAME):"]
    for name in experiment_preset_names():
        c = experiment_preset(name)
        shape = f"N={c.n_slices}, K={c.iterations}, coarse={c.coarse_role}"
        lines.append(f"  {name:24s} {c.model_kind} ({c.bc if c.model_kind != 'spectral' else c.basis}), {shape}")
    lines.append("solution-field presets (solution-field --preset NAME):")
    for name in field_preset_names():
        c = field_preset(name)
        lines.append(f"  {name:24s} {c.model_kind} ({c.bc}), T={_fmt(c.t_end)}, N={c.n_slices}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitkit",
        description="Parallel-in-time experiments: parareal traces, contraction factors, solution fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a parareal experiment, write the error trace")
    source = p_run.add_mutually_exclusive_group()
    source.add_argument("--config", help="INI config document")
    source.add_argument("--preset", help="named preset (see 'presets')")
    p_run.add_argument("--out", help="output CSV path (default: stdout)")
    p_run.add_argument("--no-coarse", action="store_true",
                       help="drop the coarse propagator (role becomes none)")
    p_run.add_argument("--iterations", type=int, help="override the iteration count")
    p_run.set_defaults(func=cmd_run)

    p_factors = sub.add_parser("factors", help="tabulate analytic contraction factors")
    p_factors.add_argument("--config", help="INI document with a [factors] section")
    p_factors.add_argument("--out", help="output CSV path (default: stdout)")
    p_factors.set_defaults(func=cmd_factors)

    p_field = sub.add_parser("solution-field", help="sequential solve on the space-time grid")
    p_field.add_argument("--preset", required=True, help="field preset name (see 'presets')")
    p_field.add_argument("--out", help="output CSV path (default: stdout)")
    p_field.set_defaults(func=cmd_solution_field)

    p_list = sub.add_parser("presets", help="list available presets")
    p_list.set_defaults(func=cmd_presets)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
