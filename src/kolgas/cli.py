"""Command-line front end.

Subcommands:

  state                closed-form gas state report (JSON)
  sweep                state table over one swept variable (CSV)
  randomness generate  write an integer-list artifact (RNG or box spectrum)
  randomness audit     complexity/deficiency report for a list file (JSON)
  randomness gap       prefix-trace gap classification for a list file (JSON)
  sim relax            wall-relaxation run(s), disorder trace + timing (JSON)
  sim joule            free-expansion experiment (JSON)

Every JSON artifact embeds a run manifest under "manifest"; every CSV
carries the same manifest as a leading "# manifest: {...}" comment line.
A long sweep hands every other block of rows to a child through
``handoff`` where the process may fork one, with the same bytes.
Exit codes: 0 success, 2 domain error (bad physics/parameters), 3 format
error (unreadable input artifact, or an artifact that cannot be written).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from typing import Callable, Iterable, Iterator

import numpy as np

from . import handoff
from . import randomness as rnd
from . import sim as simmod
from .calibration import load_calibration
from .constants import K_BOLTZMANN, SpeciesSpec, species_lookup
from .errors import DomainError, FormatError, NoPlateauError
from .thermo import (STATISTICS, GasSpec, ThermoState, species_statistics,
                     state_columns, state_equations)
from .wall import classify_regime

ARTIFACT_VERSION = "2"

#: Most rows a sweep tabulates.
SWEEP_POINTS_CAP = 10**6

#: Most runs one ``sim relax --seeds`` batch makes.
RELAX_SEEDS_CAP = 10**4

_ANGSTROM = 1e-10

#: Lines a CSV writer joins into one write, and rows a sweep computes
#: and formats as one block.
_ROWS_PER_WRITE = 1024

#: Fewest rows for which a sweep forks a child to format its odd blocks:
#: the fewest at which the child won 9 of 10 timed pairs against one
#: process (multiples of _ROWS_PER_WRITE, 2 vCPUs, --output FILE).
_SWEEP_FORK_ROWS = 4 * _ROWS_PER_WRITE


def _manifest(command: str, params: dict, seed: int | None = None) -> dict:
    """Provenance block embedded in every output artifact."""
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "artifact_version": ARTIFACT_VERSION,
        "calibration_version": load_calibration().version,
    }


def _row_format(columns: int) -> str:
    """``%`` format of a CSV row of floats, 17 digits each to read back."""
    return ",".join(["%.17g"] * columns)


def _write(chunks: Iterable[str], path: str) -> None:
    """Write the strings ``chunks`` yields to ``path``, or stdout for -."""
    try:
        if path == "-":
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        if path == "-":  # the exit flush of what is left must not fail too
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        name = "stdout" if path == "-" else path
        raise FormatError(f"{name}: {exc}") from exc


def _check_distinct(*outputs: tuple[str, str | None]) -> None:
    """Domain error if two of ``outputs``, (option, path) pairs with "-"
    for stdout and None for not written, would land in one file or both
    on stdout."""
    seen: dict[str, str] = {}
    for option, path in outputs:
        if path is None:
            continue
        where = "stdout" if path == "-" else os.path.realpath(path)
        if where in seen:
            raise DomainError(f"{seen[where]} and {option} both write to "
                              f"{'stdout' if path == '-' else path}")
        seen[where] = option


def _json(obj: dict, indent: int | None = None) -> str:
    """The one JSON encoder of every artifact; a non-finite number in
    ``obj`` is a domain error, because JSON has no token for it."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from exc


def _emit_json(payload: dict, path: str) -> None:
    _write([_json(payload, indent=2) + "\n"], path)


def _emit_csv(manifest: dict, header: str, blocks: Iterable[str],
              path: str) -> None:
    """Write the manifest line, the header and ``blocks``, text blocks of
    whole lines."""
    _write(itertools.chain([f"# manifest: {_json(manifest)}\n{header}\n"],
                           blocks), path)


def _column_rows(row: str, *columns: np.ndarray) -> Iterator[str]:
    """The lines ``row % values`` for the rows of ``columns``, as text
    blocks of up to ``_ROWS_PER_WRITE`` lines."""
    for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
        block = (column[i:i + _ROWS_PER_WRITE].tolist() for column in columns)
        yield "\n".join([row % values for values in zip(*block)]) + "\n"


# ---------------------------------------------------------------------------
# state / sweep

#: Name of each ``ThermoState`` field, in field order: the state columns
#: that both the ``state`` report and the ``sweep`` table carry.
_STATE_COLUMNS = ("lambda_th_m", "slot_count", "slots_per_particle", "kappa",
                  "gamma", "free_energy_J", "entropy_J_per_K", "pressure_Pa",
                  "chemical_potential_J", "internal_energy_J",
                  "heat_capacity_v_J_per_K")


def _state_payload(state: ThermoState, spec: GasSpec) -> dict:
    return {
        **dict(zip(_STATE_COLUMNS, state, strict=True)),
        "T": spec.T, "V": spec.V, "N": spec.N,
        "statistics": spec.statistics,
        "lambda_th_angstrom": state.lambda_th / _ANGSTROM,
        "entropy_per_particle_kb": state.S / (K_BOLTZMANN * spec.N),
        "chemical_potential_over_kt": state.mu / (K_BOLTZMANN * spec.T),
        "energy_exponents": {"T": 1.5 * state.gamma, "V": state.gamma,
                             "N": -state.gamma},
        "lambda_V_m": state.lambda_th * spec.N ** (1.0 / 3.0),
    }


def _statistics(args: argparse.Namespace, species: SpeciesSpec) -> str:
    """``--statistics`` if given, else what the species' spin implies; a
    value the spin rules out is a domain error."""
    implied = species_statistics(species)
    if args.statistics not in (None, implied):
        raise DomainError(
            f"{species.name} has spin degeneracy {species.spin_degeneracy}, "
            f"so its statistics are {implied}, not {args.statistics}"
        )
    return implied


def cmd_state(args: argparse.Namespace) -> int:
    species = species_lookup(args.gas)
    statistics = _statistics(args, species)
    spec = GasSpec(args.temp, args.volume, args.count, species, statistics)
    state = state_equations(spec)
    side = (args.volume ** (1.0 / 3.0) if args.vessel_side is None
            else args.vessel_side)
    hierarchy = classify_regime(spec, side)

    warnings = []
    if hierarchy.regime != "collisionless":
        warnings.append(
            "mean free path is below the vessel side: not collisionless"
        )
    if not hierarchy.cool:
        warnings.append(
            "outside the cool window (normal-fluid he3, T in (3.3, 10] K)"
        )

    payload = {
        "manifest": _manifest("state", {
            "gas": species.name, "temp": args.temp, "volume": args.volume,
            "count": args.count, "statistics": statistics,
            "vessel_side": side,
        }),
        "gas": {
            "species": species.name,
            "mass_kg": species.mass,
            "spin_degeneracy": species.spin_degeneracy,
        },
        "state": _state_payload(state, spec),
        "lengths": {
            "mean_free_path_m": hierarchy.l_mfp,
            "vessel_side_m": side,
            "interparticle_m": hierarchy.ell_N,
            "thermal_m": state.lambda_th,
            "lj_radius_m": species.a_LJ,
            "bohr_like_radius_m": species.a_B,
            "regime": hierarchy.regime,
            "cool": hierarchy.cool,
            "inequalities": hierarchy.inequalities,
        },
        "warnings": warnings,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.var not in ("T", "V", "N"):
        raise DomainError("sweep variable must be one of T, V, N")
    if not 2 <= args.points <= SWEEP_POINTS_CAP:
        raise DomainError(f"sweep points must be in 2..{SWEEP_POINTS_CAP}")
    if not (0.0 < args.start < math.inf and 0.0 < args.stop < math.inf):
        raise DomainError("sweep endpoints must be positive and finite")
    species = species_lookup(args.gas)
    statistics = _statistics(args, species)
    grid = (np.geomspace if args.log else np.linspace)(
        args.start, args.stop, args.points
    )
    point = {"T": args.temp, "V": args.volume, "N": args.count}

    # Each row's checks, whether its columns are finite among them, are
    # monotone in the swept variable: the extremes decide, each checked
    # alone in grid order, so the error is the first failing extreme's.
    for value in grid[sorted((grid.argmin(), grid.argmax()))].tolist():
        state_equations(GasSpec(*{**point, args.var: value}.values(),
                                species, statistics))
    row = _row_format(1 + len(_STATE_COLUMNS))

    def text(block: int) -> str:
        values = grid[block * _ROWS_PER_WRITE:(block + 1) * _ROWS_PER_WRITE]
        columns = state_columns(*{**point, args.var: values}.values(),
                                species, statistics)
        return "\n".join([row % r for r in zip(
            values.tolist(), *(column.tolist() for column in columns))]) + "\n"

    manifest = _manifest("sweep", {
        "gas": species.name, "var": args.var, "from": args.start,
        "to": args.stop, "points": args.points, "log": bool(args.log),
        "temp": args.temp, "volume": args.volume, "count": args.count,
        "statistics": statistics,
    })
    blocks = -(-len(grid) // _ROWS_PER_WRITE)
    child = (handoff.start(_SWEEP_SLOT, lambda slot: _format_block(text, slot),
                           operator.setitem, "text")
             if len(grid) >= _SWEEP_FORK_ROWS else None)
    try:
        _emit_csv(manifest, ",".join((args.var, *_STATE_COLUMNS)),
                  _sweep_blocks(text, blocks, child), args.output)
    finally:
        if child is not None:
            child.close()
    return 0


#: A sweep block handed to the child: its index, and its ASCII text,
#: which NULs pad past its length.  A row is 1 + len(_STATE_COLUMNS)
#: fields, each at most 24 characters (-2.2250738585072014e-308) and a
#: comma or newline, so no block is cut short.
_SWEEP_SLOT = np.dtype([("block", "i8"), ("text", "S%d" % (
    _ROWS_PER_WRITE * (1 + len(_STATE_COLUMNS)) * 25))])


def _format_block(text: Callable[[int], str], slot: np.void) -> None:
    """The sweep child's work: the text of the block ``slot`` names."""
    slot["text"] = text(slot["block"]).encode("ascii")


def _sweep_blocks(text: Callable[[int], str], blocks: int,
                  child: handoff.Handoff | None) -> Iterator[str]:
    """``text(i)`` for each of the ``blocks`` blocks in order.  With a
    ``child``, each odd block is handed to it before the even block
    ahead of it is formatted here, and collected when its turn comes."""
    texts: list = [None] * blocks
    for i in range(blocks):
        if child is not None and i % 2 == 0 and i + 1 < blocks:
            child.take(texts, i + 1, "block", i + 1)
        elif child is not None:
            child.collect(texts, wait=True)
        yield text(i) if texts[i] is None else texts[i].decode("ascii")
        texts[i] = None


# ---------------------------------------------------------------------------
# randomness

def cmd_randomness_generate(args: argparse.Namespace) -> int:
    _check_distinct(("--output", args.output), ("the JSON receipt", "-"))
    if args.kind == "rng":
        if args.seed < 0:
            raise DomainError("seed must be nonnegative")
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        k = args.k if args.k is not None else rnd.default_width(args.n)
        enc = rnd.rng_list(args.n, k, rng)
    else:  # smooth-box, the only other --kind choice
        species = species_lookup(args.gas)
        enc = rnd.smooth_box_list(args.n, args.box_side, species.mass,
                                  k=args.k)
    payload = {
        "manifest": _manifest("randomness generate", {
            "kind": args.kind, "n": args.n, "k": enc.k,
            "gas": args.gas, "box_side": args.box_side, "raw": bool(args.raw),
            "output": args.output,
        }, seed=args.seed if args.kind == "rng" else None),
        "n": enc.n, "k": enc.k, "l_primitive": enc.l_primitive,
        "source_tag": enc.source_tag,
    }
    # The receipt is encoded first, so one that is not finite exits 2
    # before the list file is written.
    receipt = _json(payload, indent=2) + "\n"
    rnd.write_list_file(args.output, enc, raw=args.raw)
    _write([receipt], "-")
    return 0


def cmd_randomness_audit(args: argparse.Namespace) -> int:
    enc, report = rnd.measure_list_file(args.input, args.estimator)
    payload = {
        "manifest": _manifest("randomness audit", {
            "input": args.input, "estimator": args.estimator,
        }),
        "n": enc.n, "k": enc.k, "source_tag": enc.source_tag,
        "l_primitive": report.l_primitive,
        "k_hat_bits": report.k_hat,
        "estimator_id": report.estimator_id,
        "deficiency_bits": report.deficiency,
        "gap_class": report.gap_class,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_randomness_gap(args: argparse.Namespace) -> int:
    enc, trace = rnd.measure_list_file(args.input, args.estimator,
                                       points=args.points)
    verdict = rnd.gap_classify(trace)
    payload = {
        "manifest": _manifest("randomness gap", {
            "input": args.input, "points": args.points,
            "estimator": args.estimator,
        }),
        "n": enc.n, "k": enc.k, "source_tag": enc.source_tag,
        "prefix_bits": [int(l) for l, _ in trace],
        "k_hat_bits": [float(kh) for _, kh in trace],
        "deficiency_bits": [float(l - kh) for l, kh in trace],
        "label": verdict.label,
        "change_point_bits": verdict.change_point,
        "slope_bits_per_bit": verdict.slope,
    }
    _emit_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# sim

def _sim_config(args: argparse.Namespace, seed: int,
                keep_events: bool = False) -> simmod.SimConfig:
    cfg = simmod.SimConfig(
        n_particles=args.particles, box=(args.box_side,) * 3,
        T_wall=args.temp, species=species_lookup(args.gas),
        wall_model=args.wall_model, seed=seed, dt_out=1.0, duration=0.0,
        perturbation=args.perturbation, keep_events=keep_events,
    )
    per_transit = args.samples_per_transit
    # t_b / 0 would raise; its limit, inf, is what the check rejects
    dt_out = cfg.t_b / per_transit if per_transit else math.inf
    if not 0.0 < dt_out < math.inf:
        raise DomainError(f"--samples-per-transit {per_transit:g} gives a "
                          f"sample interval of {dt_out:g} s, not in (0, inf)")
    duration = args.transits * cfg.t_b
    if not 0.0 <= duration < math.inf:
        raise DomainError(f"--transits {args.transits:g} gives a duration "
                          f"of {duration:g} s, not in [0, inf)")
    return dataclasses.replace(cfg, dt_out=dt_out, duration=duration)


def _sim_params(args: argparse.Namespace, **extra) -> dict:
    """Manifest parameters shared by every sim subcommand, plus ``extra``."""
    return {
        "wall_model": args.wall_model, "particles": args.particles,
        "box_side": args.box_side, "temp": args.temp, "gas": args.gas,
        "transits": args.transits,
        "samples_per_transit": args.samples_per_transit,
        "perturbation": args.perturbation, **extra,
    }


def _write_trace(manifest: dict, trace: simmod.DisorderTrace,
                 path: str) -> None:
    columns = trace[:len(simmod.TRACE_COLUMNS)]
    _emit_csv(manifest, ",".join(simmod.TRACE_COLUMNS),
              _column_rows(_row_format(len(columns)), *columns), path)


def _write_events(manifest: dict, log: list, path: str) -> None:
    """Write a run's wall-event log, ``SimState.event_log``, chunk by chunk."""
    row = "%.17g,%d," + _row_format(3)  # particle_id is the one integer
    rows = itertools.chain.from_iterable(
        _column_rows(row, *chunk) for chunk in log)
    _emit_csv(manifest, ",".join(simmod.EVENT_COLUMNS), rows, path)


def cmd_sim_relax(args: argparse.Namespace) -> int:
    _check_distinct(("--output", args.output),
                    ("--trace-output", args.trace_output),
                    ("--events-output", args.events_output))
    if not 1 <= args.seeds <= RELAX_SEEDS_CAP:
        raise DomainError(f"seeds must be in 1..{RELAX_SEEDS_CAP}")
    seeds = (
        [args.seed] if args.seeds == 1
        else [simmod.member_seed(args.seed, i) for i in range(args.seeds)]
    )
    manifest = _manifest("sim relax",
                         _sim_params(args, init=args.init, seeds=args.seeds),
                         seed=args.seed)

    runs = []
    for i, seed in enumerate(seeds):
        # only the last run's events are written
        cfg = _sim_config(args, seed, keep_events=(
            args.events_output is not None and i == len(seeds) - 1))
        state = simmod.init_sim(cfg, args.init)
        trace = simmod.simulate(cfg, state)
        entry = {
            "seed": seed,
            "d_hat_initial_bits": float(trace.d_hat[0]),
            "d_hat_final_bits": float(trace.d_hat[-1]),
            "l_total_bits": trace.l_total,
            "n_wall_events": state.n_events,
        }
        try:
            entry["t_relax_s"] = simmod.relaxation_time(trace)
            entry["t_relax_transits"] = entry["t_relax_s"] / cfg.t_b
            entry["no_plateau_reason"] = None
        except NoPlateauError as exc:
            entry["t_relax_s"] = None
            entry["t_relax_transits"] = None
            entry["no_plateau_reason"] = str(exc)
        runs.append(entry)

    # Side files, of the last run, go first, so one that cannot be
    # written exits 3 before any report reaches stdout.
    if args.trace_output is not None:
        _write_trace(manifest, trace, args.trace_output)
    if args.events_output is not None:
        _write_events(manifest, state.event_log, args.events_output)
    payload = {
        "manifest": manifest,
        "t_b_s": cfg.t_b,
        "runs": runs,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_sim_joule(args: argparse.Namespace) -> int:
    trace_paths = ([args.trace_prefix + ".before.csv",
                    args.trace_prefix + ".after.csv"]
                   if args.trace_prefix is not None else [])
    _check_distinct(("--output", args.output),
                    *(("--trace-prefix", path) for path in trace_paths))
    cfg = _sim_config(args, args.seed)
    report = simmod.run_joule_expansion(cfg, args.ratio,
                                        keep_traces=bool(trace_paths))
    manifest = _manifest("sim joule", _sim_params(args, ratio=args.ratio),
                         seed=args.seed)
    for trace, path in zip((report.trace_before, report.trace_after),
                           trace_paths):
        _write_trace(manifest, trace, path)
    payload = {
        "manifest": manifest,
        "volume_ratio": report.volume_ratio,
        "d_hat_before_bits": report.d_hat_before,
        "d_hat_after_bits": report.d_hat_after,
        "delta_d_hat_bits": report.delta_d_hat,
        "delta_s_per_particle_kb": report.delta_s_per_particle_kb,
        "ln_ratio": report.ln_ratio,
        "disorder_increased": bool(report.delta_d_hat > 0.0)
        if report.volume_ratio > 1.0 else None,
    }
    _emit_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_gas_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gas", default="he3", help="species name (he3, he4)")
    p.add_argument("--temp", type=float, default=10.0, help="temperature, K")
    p.add_argument("--volume", type=float, default=1.8e-4, help="volume, m^3")
    p.add_argument("--count", type=float, default=1.7e16,
                   help="particle count")
    p.add_argument("--statistics", choices=STATISTICS, default=None,
                   help="occupation statistics (default: what the species' "
                        "spin implies, he3 fermi and he4 bose); a value the "
                        "spin rules out is an error")


def _add_sim_args(p: argparse.ArgumentParser, transits_help: str) -> None:
    p.add_argument("--wall-model", required=True,
                   choices=simmod.WALL_MODELS)
    p.add_argument("--particles", type=int, default=10_000)
    p.add_argument("--box-side", type=float, default=0.035,
                   help="cubic box edge, m")
    p.add_argument("--temp", type=float, default=10.0)
    p.add_argument("--gas", default="he3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transits", type=float, default=8.0, help=transits_help)
    p.add_argument("--samples-per-transit", type=float, default=8.0)
    p.add_argument("--perturbation", type=float,
                   default=simmod.SimConfig.perturbation,
                   help="site-normal tilt scale for specular_random_sites, "
                        f"at most {simmod.PERTURBATION_CAP:g}")
    p.add_argument("--output", default="-", help="JSON path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolgas",
        description="closed-form gas state equations, computable randomness "
                    "audits, and a collisionless-gas relaxation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="single-point state report")
    _add_gas_state_args(p_state)
    p_state.add_argument("--vessel-side", type=float, default=None,
                         help="wall spacing for the length hierarchy, m")
    p_state.add_argument("--output", default="-")
    p_state.set_defaults(func=cmd_state)

    p_sweep = sub.add_parser("sweep", help="state table over one variable")
    _add_gas_state_args(p_sweep)
    p_sweep.add_argument("--var", required=True, help="T, V or N")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true",
                         help="geometric instead of linear spacing")
    p_sweep.add_argument("--output", default="-")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rand = sub.add_parser("randomness", help="list artifacts and audits")
    rand_sub = p_rand.add_subparsers(dest="rand_command", required=True)

    p_gen = rand_sub.add_parser("generate", help="write a list artifact")
    p_gen.add_argument("--kind", choices=("rng", "smooth-box"),
                       required=True)
    p_gen.add_argument("--n", type=int, default=10_000,
                       help="number of list entries")
    p_gen.add_argument("--k", type=int, default=None,
                       help="bits per entry (default: fits the values)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--gas", default="he3")
    p_gen.add_argument("--box-side", type=float, default=0.035)
    p_gen.add_argument("--raw", action="store_true",
                       help="packed binary body instead of decimal lines")
    p_gen.add_argument("--output", required=True,
                       help="list file path (the JSON receipt goes to "
                            "stdout)")
    p_gen.set_defaults(func=cmd_randomness_generate)

    p_audit = rand_sub.add_parser("audit", help="complexity report")
    p_audit.add_argument("--input", required=True,
                         help="list file path, or - for stdin")
    p_audit.add_argument("--estimator", default="best")
    p_audit.add_argument("--output", default="-")
    p_audit.set_defaults(func=cmd_randomness_audit)

    p_gap = rand_sub.add_parser("gap", help="prefix-trace classification")
    p_gap.add_argument("--input", required=True,
                       help="list file path, or - for stdin")
    p_gap.add_argument("--points", type=int, default=12)
    p_gap.add_argument("--estimator", default="best")
    p_gap.add_argument("--output", default="-")
    p_gap.set_defaults(func=cmd_randomness_gap)

    p_sim = sub.add_parser("sim", help="event-driven gas runs")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)

    p_relax = sim_sub.add_parser("relax", help="relaxation to disorder")
    _add_sim_args(p_relax, "run length in vessel transit times")
    p_relax.add_argument("--init", choices=simmod.INIT_MODES,
                         default="beam")
    p_relax.add_argument("--seeds", type=int, default=1,
                         help="batch size (member seeds derive from --seed)")
    p_relax.add_argument("--trace-output", default=None,
                         help="CSV trace path (last run of the batch)")
    p_relax.add_argument("--events-output", default=None,
                         help="CSV wall-event log path (last run)")
    p_relax.set_defaults(func=cmd_sim_relax)

    p_joule = sim_sub.add_parser("joule", help="free expansion")
    _add_sim_args(
        p_joule,
        "recorded in the manifest only: joule always runs "
        f"{simmod.JOULE_SETTLE_TRANSITS:g} transits before the expansion "
        f"and {simmod.JOULE_EXPANDED_TRANSITS:g} after it",
    )
    p_joule.add_argument("--ratio", type=float, default=4.0,
                         help="volume expansion ratio, >= 1")
    p_joule.add_argument("--trace-prefix", default=None,
                         help="write the full before/after trace CSVs to "
                              "this prefix; without it, joule samples only "
                              f"the last {simmod.JOULE_MEASURE_SAMPLES} rows "
                              "of each stage, the ones the report averages")
    p_joule.set_defaults(func=cmd_sim_joule)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
