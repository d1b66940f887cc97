"""Event-driven collisionless gas in a box with stochastic walls.

Particles fly ballistically between exact wall crossings; all interaction
with the world happens at the walls.  Wall models:

``specular_random_sites``  mirror reflection about a site normal tilted by
                           an RNG draw (speed preserved); the tilt stands
                           in for randomly placed wall atoms
``langmuir_thermal``       re-emission with flux-weighted thermal speed at
                           the wall temperature and cosine-law direction
``smooth_specular``        exact mirror reflection, the non-mixing control

Everything is driven by one ``numpy`` generator seeded from the config,
so a given (config, seed) reproduces event logs and traces bit for bit.
Only stepping draws from it, so ``simulate`` hands trace rows to a
sampler process on a second CPU where ``handoff`` may fork one, as many
as it has room for, and the rows come out the same wherever they were
computed.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import handoff
from .calibration import load_calibration
from .constants import K_BOLTZMANN, SpeciesSpec
from .errors import DomainError, NoPlateauError
from .randomness import (default_width, encode_list, estimate_complexity,
                         quantize)
from .thermo import GasSpec, rms_speed, species_statistics, state_equations


WALL_MODELS = ("specular_random_sites", "langmuir_thermal", "smooth_specular")
INIT_MODES = ("equilibrium", "beam", "half_box")

N_PARTICLES_CAP = 10**5

#: Most samples one disorder trace may hold (``SimConfig.n_samples``).
TRACE_SAMPLES_CAP = 10**5

#: Largest site-normal tilt scale.  A ``specular_random_sites`` scatter
#: redraws a tilt until the reflected ray points inside, as a draw does
#: with probability 0.55 at the default 0.8, 0.18 at 2 and about
#: 0.9 / perturbation**2 beyond (0.009 at 10, some 115 draws an event);
#: from about 1e154 on, the normal overflows and no draw ever does.
PERTURBATION_CAP = 10.0

#: Standard deviations of the thermal velocity distribution out to which
#: every squared speed must stay finite; this bounds ``T_wall`` from above
#: (about 1.4e301 K for he3).  Past it a thermal wall's speeds, and the
#: norms sampling takes of them, overflow to inf.
THERMAL_TAIL_SIGMAS = 40.0

#: The columns of each entry of the wall-event log, ``SimState.event_log``.
EVENT_COLUMNS = ("t", "particle_id", "exit_theta", "exit_phi", "speed")

#: The columns of a disorder trace, ``DisorderTrace`` up to ``l_total``;
#: a row ``sample_disorder`` returns holds the ones after ``t``.
TRACE_COLUMNS = ("t", "D_hat", "K_orient", "K_nn", "chi2_orient", "chi2_pos")

_ORIENT_BINS = 16
_POS_BINS = 8


@dataclass(frozen=True)
class SimConfig:
    """Run description: particle count, box edges (m), wall temperature
    (K), species, wall model, RNG seed, output cadence and duration (s).

    ``perturbation`` is the site-normal tilt scale (radians-like, the
    standard deviation of the tangential normal components) used by
    ``specular_random_sites``, at most ``PERTURBATION_CAP``.
    ``keep_events`` keeps the wall-event log in ``SimState.event_log``;
    the event count is kept either way.
    """

    n_particles: int
    box: tuple[float, float, float]
    T_wall: float
    species: SpeciesSpec
    wall_model: str
    seed: int
    dt_out: float
    duration: float
    perturbation: float = 0.8
    keep_events: bool = False

    def __post_init__(self) -> None:
        floats = (*self.box, self.T_wall, self.dt_out, self.duration,
                  self.perturbation)
        if not all(math.isfinite(x) for x in floats):
            raise DomainError("SimConfig needs finite box, T_wall, dt_out, "
                              "duration and perturbation")
        if not (1 <= self.n_particles <= N_PARTICLES_CAP):
            raise DomainError(
                f"n_particles must be in 1..{N_PARTICLES_CAP}"
            )
        if len(self.box) != 3 or min(self.box) <= 0.0:
            raise DomainError("box must be three positive edge lengths")
        if self.T_wall <= 0.0:
            raise DomainError("T_wall must be positive")
        t_max = (sys.float_info.max * self.species.mass
                 / (3.0 * THERMAL_TAIL_SIGMAS**2 * K_BOLTZMANN))
        if self.T_wall > t_max:
            raise DomainError(
                f"T_wall must be at most {t_max:.3g} K for "
                f"{self.species.name}, or thermal speeds overflow")
        if not 0.0 < self.volume < math.inf:
            raise DomainError(f"box edges {self.box} m multiply to a "
                              "volume that over- or underflows")
        if not 0.0 < self.v_th < math.inf:
            raise DomainError(f"T_wall {self.T_wall:g} K gives "
                              f"{self.species.name} a thermal speed of 0")
        if self.wall_model not in WALL_MODELS:
            raise DomainError(f"wall_model must be one of {WALL_MODELS}")
        if self.seed < 0 or self.seed >= 2**64:
            raise DomainError("seed must fit in 64 bits")
        if self.dt_out <= 0.0 or self.duration < 0.0:
            raise DomainError("need dt_out > 0 and duration >= 0")
        if not 0.0 <= self.perturbation <= PERTURBATION_CAP:
            raise DomainError(
                f"perturbation must be in 0..{PERTURBATION_CAP:g}")
        # the quotient first, so that ``n_samples`` never rounds inf
        if not (self.duration / self.dt_out < TRACE_SAMPLES_CAP
                and self.n_samples <= TRACE_SAMPLES_CAP):
            raise DomainError(
                f"a trace may hold at most {TRACE_SAMPLES_CAP} samples"
            )

    @property
    def volume(self) -> float:
        return self.box[0] * self.box[1] * self.box[2]

    @property
    def v_th(self) -> float:
        return rms_speed(self.T_wall, self.species.mass)

    @property
    def t_b(self) -> float:
        """Vessel transit time (cube-equivalent side over thermal speed)."""
        return self.volume ** (1.0 / 3.0) / self.v_th

    @property
    def n_samples(self) -> int:
        """Trace samples, one every ``dt_out`` from 0 to ``duration``."""
        return int(round(self.duration / self.dt_out)) + 1


def member_seed(base_seed: int, index: int) -> int:
    """Fixed splitting rule for seed batches: member ``index`` of a batch
    rooted at ``base_seed``."""
    if base_seed < 0:
        raise DomainError("seed must be nonnegative")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class SimState:
    """Mutable particle state plus the wall-event count and, if the config
    keeps it, the wall-event log: one tuple of ``EVENT_COLUMNS`` arrays
    per ``wall_scatter`` call, in call order."""

    config: SimConfig
    time: float
    pos: np.ndarray        # (n, 3), m
    vel: np.ndarray        # (n, 3), m/s
    rng: np.random.Generator
    event_log: list = field(default_factory=list)
    n_events: int = 0


def _maxwell_velocities(rng: np.random.Generator, n: int, T: float,
                        mass: float) -> np.ndarray:
    sigma = math.sqrt(K_BOLTZMANN * T / mass)
    return rng.normal(0.0, sigma, size=(n, 3))


def _lattice_positions(n: int, box: tuple[float, float, float]) -> np.ndarray:
    side = math.ceil(n ** (1.0 / 3.0))
    idx = np.arange(side**3)[:n]
    coords = np.stack(
        [idx // (side * side), (idx // side) % side, idx % side], axis=1
    ).astype(np.float64)
    return (coords + 0.5) / side * np.asarray(box)


def init_sim(config: SimConfig, mode: str) -> SimState:
    """The state at time 0, seeded from ``config.seed``, that ``simulate``
    steps; the caller holds it and reads its event count and log.

    equilibrium   Maxwell velocities at T_wall, uniform positions
    beam          every velocity +x at the thermal speed, lattice positions
                  (maximally structured in both lists)
    half_box      Maxwell velocities, positions confined to the lower
                  half of the x extent
    """
    if mode not in INIT_MODES:
        raise DomainError(f"init mode must be one of {INIT_MODES}")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = config.n_particles
    box = np.asarray(config.box)
    if mode == "beam":
        pos = _lattice_positions(n, config.box)
        vel = np.zeros((n, 3))
        vel[:, 0] = config.v_th
    else:
        pos = rng.uniform(0.0, 1.0, size=(n, 3)) * box
        if mode == "half_box":
            pos[:, 0] *= 0.5
        vel = _maxwell_velocities(rng, n, config.T_wall, config.species.mass)
    return SimState(config=config, time=0.0, pos=pos, vel=vel, rng=rng)


def wall_scatter(state: SimState, idx: np.ndarray, axis: np.ndarray,
                 t_event: np.ndarray) -> None:
    """Apply the configured wall model to particles ``idx``, row ``i``
    sitting on a wall across ``axis[i]``; count the outgoing events, and
    append them to the log if the run keeps one."""
    cfg = state.config
    m = idx.size
    rows = np.arange(m)
    v = state.vel[idx]
    sign = -np.sign(v[rows, axis])  # inward normal component on the hit axis

    if cfg.wall_model == "smooth_specular":
        v[rows, axis] = -v[rows, axis]
    elif cfg.wall_model == "specular_random_sites":
        # Resample the site tilt until the reflected ray points back inside;
        # the rows still pending carry their axis, sign and incoming
        # velocity from one redraw to the next.
        pending, ax, s, vv = rows, axis, sign, v
        while pending.size:
            at = (rows[:pending.size], ax)
            normals = cfg.perturbation * state.rng.normal(size=(pending.size, 3))
            normals[at] = s
            normals /= np.sqrt(np.add.reduce(normals * normals, axis=1,
                                             keepdims=True))
            refl = vv - 2.0 * np.add.reduce(vv * normals, axis=1,
                                            keepdims=True) * normals
            ok = refl[at] * s > 0.0
            if pending.size == m and ok.all():
                v = refl
                break
            v[pending[ok]] = refl[ok]
            out = ~ok
            pending, ax, s, vv = pending[out], ax[out], s[out], vv[out]
    else:  # langmuir_thermal
        sigma = math.sqrt(K_BOLTZMANN * cfg.T_wall / cfg.species.mass)
        v = sigma * state.rng.normal(size=(m, 3))
        v[rows, axis] = sign * state.rng.rayleigh(sigma, size=m)

    state.vel[idx] = v
    state.n_events += m
    if cfg.keep_events:
        speed = np.sqrt(np.add.reduce(v * v, axis=1))
        theta = np.arccos(np.clip(v[:, 2] / speed, -1.0, 1.0))
        phi = np.arctan2(v[:, 1], v[:, 0])
        state.event_log.append(
            (t_event.copy(), idx.astype(np.int64), theta, phi, speed)
        )


def _next_wall(p: np.ndarray, v: np.ndarray,
               box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The axis of each particle's next wall crossing and the time to it,
    inf for a particle at rest."""
    t_wall = np.divide(np.where(v < 0.0, -p, box - p), v, where=v != 0.0,
                       out=np.full(v.shape, np.inf))
    axis = np.argmin(t_wall, axis=1)
    return axis, t_wall[np.arange(len(v)), axis]


def step_to(state: SimState, t_target: float) -> None:
    """Advance every particle to absolute time ``t_target``, resolving
    each wall crossing exactly (no time discretisation error)."""
    if not math.isfinite(t_target):
        raise DomainError(f"cannot step to t = {t_target}")
    if t_target < state.time:
        raise DomainError("cannot step backwards in time")
    box = np.asarray(state.config.box)
    pos, vel = state.pos, state.vel
    # the first pass moves every particle in place; those that hit a wall
    # are the pending set (idx, the hit axis, the time each has left),
    # which each later pass moves on, keeping only those that hit again
    axis, t_next = _next_wall(pos, vel, box)
    left = t_target - state.time
    pos += vel * np.minimum(t_next, left)[:, None]
    idx = np.flatnonzero(t_next < left)
    axis, left = axis[idx], left - t_next[idx]
    while idx.size:
        pos[idx, axis] = np.where(vel[idx, axis] > 0.0, box[axis], 0.0)
        wall_scatter(state, idx, axis, t_target - left)
        p, v = pos[idx], vel[idx]
        axis, t_next = _next_wall(p, v, box)
        pos[idx] = p + v * np.minimum(t_next, left)[:, None]
        hit = t_next < left
        idx, axis, left = idx[hit], axis[hit], left[hit] - t_next[hit]

    state.time = t_target


# ---------------------------------------------------------------------------
# disorder trace

class DisorderTrace(NamedTuple):
    """Per-sample disorder estimates of one ``simulate`` call, ``t`` from
    its start: a field for each of ``TRACE_COLUMNS``, then ``l_total``.

    ``d_hat`` is the summed description length of the two intrinsic lists
    (velocity orientations and nearest-neighbour distances), an estimator
    stand-in for the net disorder; the package checks its sign and
    monotonicity, not its absolute scale.  ``l_total`` is the combined
    literal length of the two lists in bits.
    """

    t: np.ndarray
    d_hat: np.ndarray
    k_orient: np.ndarray
    k_nn: np.ndarray
    chi2_orient: np.ndarray
    chi2_pos: np.ndarray
    l_total: int


def _chi2_uniform(values: np.ndarray, lo: float, hi: float, bins: int) -> float:
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    expected = values.size / bins
    return float(np.sum((counts - expected) ** 2) / expected)


def sample_disorder(pos: np.ndarray, vel: np.ndarray,
                    box: tuple[float, float, float],
                    reference_box: tuple[float, float, float],
                    ) -> tuple[float, ...]:
    """One trace row for particles at ``pos`` moving at ``vel`` in
    ``box``: the values of ``TRACE_COLUMNS`` after ``t``.

    ``reference_box`` fixes the quantization scale of the neighbour list:
    the largest box of a multi-stage run, so samples are comparable
    across stages, or ``box`` itself.

    The neighbour distances come from a ``cKDTree`` with sliding-midpoint
    splits (``balanced_tree=False``) and uncompacted 32-point leaves
    (``compact_nodes=False``), and are those of scipy's default tree bit
    for bit: each is the least of the same per-pair sums, the tree's
    shape decides only which pairs the exact query prunes, never one that
    could be nearer, and a tie changes which neighbour is found, not its
    distance.
    """
    n = len(pos)
    if n < 2:
        raise DomainError("the nearest-neighbour list needs 2 or more "
                          "particles")
    k = default_width(n)
    diag = float(np.linalg.norm(reference_box))

    speed = np.linalg.norm(vel, axis=1)
    u = vel[:, 2] / np.where(speed > 0.0, speed, 1.0)
    enc_o = encode_list(quantize(u, k, bounds=(-1.0, 1.0)), k=k,
                        source_tag="orientation")
    k_orient = estimate_complexity(enc_o).k_hat

    from scipy.spatial import cKDTree  # here, so only sampling loads scipy
    # sliding-midpoint splits into uncompacted leaves of 32: at n = 10^4
    # the build takes 0.8-1.3 ms where the default tree's takes 2.3-3.0,
    # and build plus query 0.78-0.89 of the default's time (17 states of
    # each beam-start wall, min of 7, 2 vCPUs, scipy 1.17)
    nn_dist = cKDTree(pos, leafsize=32, balanced_tree=False,
                      compact_nodes=False).query(pos, k=2)[0][:, 1]
    enc_nn = encode_list(quantize(nn_dist, k, bounds=(0.0, diag)), k=k,
                         source_tag="nn-distance")
    k_nn = estimate_complexity(enc_nn).k_hat

    chi_o = _chi2_uniform(u, -1.0, 1.0, _ORIENT_BINS)
    chi_p = sum(
        _chi2_uniform(pos[:, a], 0.0, box[a], _POS_BINS)
        for a in range(3)
    )
    return k_orient + k_nn, k_orient, k_nn, chi_o, chi_p


#: One snapshot slot shared with the sampler process: the trace row, the
#: particle count, the box and the reference box, then the positions and
#: the velocities of up to N_PARTICLES_CAP particles.
_SLOT = np.dtype([("row", "f8", len(TRACE_COLUMNS) - 1), ("n", "i8"),
                  ("box", "f8", 3), ("ref", "f8", 3),
                  ("pos", "f8", (N_PARTICLES_CAP, 3)),
                  ("vel", "f8", (N_PARTICLES_CAP, 3))])


def _snapshot(slot: np.void) -> tuple[np.ndarray, ...]:
    """Views of the positions, velocities, box and reference box of the
    snapshot in one shared slot."""
    n = slot["n"]
    return slot["pos"][:n], slot["vel"][:n], slot["box"], slot["ref"]


def _put_snapshot(slot: np.void, state: SimState,
                  reference_box: tuple[float, float, float]) -> None:
    slot["n"] = len(state.pos)
    pos, vel, box, ref = _snapshot(slot)
    pos[:], vel[:], box[:], ref[:] = (state.pos, state.vel, state.config.box,
                                      reference_box)


def _sample_slot(slot: np.void) -> None:
    """The sampler's work, by this module's ``sample_disorder`` as it is
    when the row is sampled, here or in the sampler process."""
    slot["row"] = sample_disorder(*_snapshot(slot))


#: This interpreter's sampler; every run in the process shares it, so a
#: batch of runs pays for one fork.
_SAMPLER: handoff.Handoff | None = None


def _sampler() -> handoff.Handoff | None:
    """The live sampler, forked on first use and after one dies; None
    where ``handoff.start`` starts no process."""
    global _SAMPLER
    if _SAMPLER is not None and _SAMPLER.owner == os.getpid():
        if _SAMPLER.process.is_alive():
            return _SAMPLER
        _SAMPLER.close()
    import scipy.spatial  # noqa: F401  before the fork, not in the child
    _SAMPLER = handoff.start(_SLOT, _sample_slot, _put_snapshot, "row")
    return _SAMPLER


def simulate(config: SimConfig, state: SimState,
             reference_box: tuple[float, float, float] | None = None,
             tail: int | None = None) -> DisorderTrace:
    """Step ``state`` under ``config`` for ``config.duration`` seconds from
    its current time, and return the disorder trace sampled every
    ``config.dt_out`` against ``reference_box`` (default ``config.box``).
    ``state.config`` becomes ``config``, so a run goes on into a new
    stage, say in a wider box, by one more call on the same state.

    With ``tail``, only the last ``tail`` sample times are sampled, and
    the trace holds just those rows with their own ``t``.  The run still
    steps to every sample time, so the flights are cut, the RNG drawn and
    the state reached exactly as in a full run, and the rows are the last
    ``tail`` rows of the full trace bit for bit.

    Each row is offered to the sampler process, if there is one, and
    sampled here only when the sampler has no room for it.  A run that
    fails while rows are owed stops the sampler, so that the next run
    forks a fresh one and reads no row of this one.
    """
    state.config = config
    if reference_box is None:
        reference_box = config.box
    t0 = state.time
    times = t0 + np.arange(config.n_samples) * config.dt_out
    first = 0 if tail is None else max(len(times) - tail, 0)
    sampler = _sampler()
    rows = np.empty((len(times) - first, len(TRACE_COLUMNS) - 1))
    try:
        # i indexes rows, so it is negative at the times before the tail
        for i, t_k in enumerate(times, start=-first):
            step_to(state, float(t_k))
            if i >= 0 and not (sampler is not None and sampler.take(
                    rows, i, state, reference_box)):
                rows[i] = sample_disorder(state.pos, state.vel, config.box,
                                          reference_box)
        if sampler is not None:
            sampler.collect(rows, wait=True)
    finally:
        if sampler is not None and sampler.owed:
            sampler.close()
    l_total = 2 * config.n_particles * default_width(config.n_particles)
    return DisorderTrace(times[first:] - t0, *rows.T, l_total)


RELAXED_FRACTION = 0.95


def relaxation_time(trace: DisorderTrace) -> float:
    """First sample time at which d_hat reaches ``RELAXED_FRACTION`` of
    its plateau (the mean over the last quarter of the trace).

    Raises NoPlateauError when the trace is too short to hold a tail,
    when the tail has not stabilised, or when it never rises above the
    calibrated floor, as for non-mixing walls.
    """
    calib = load_calibration()
    d = trace.d_hat
    m = d.size
    if m < 8:
        raise NoPlateauError("trace too short to locate a plateau")
    q3 = d[m // 2: 3 * m // 4]
    q4 = d[3 * m // 4:]
    plateau = float(q4.mean())
    floor = calib.plateau_floor_fraction * trace.l_total
    if plateau < floor:
        raise NoPlateauError(
            f"trace plateau {plateau:.0f} bits is below the floor "
            f"{floor:.0f} bits; the run never disordered"
        )
    if abs(float(q3.mean()) - plateau) > calib.plateau_stability_fraction * plateau:
        raise NoPlateauError("trace tail is still drifting; no plateau")
    crossing = np.flatnonzero(d >= RELAXED_FRACTION * plateau)
    if crossing.size == 0:
        raise NoPlateauError("trace never reaches the requested level")
    return float(trace.t[crossing[0]])


# ---------------------------------------------------------------------------
# irreversible experiment

#: Transit times the two free-expansion stages run, before and after the
#: partition is removed.
JOULE_SETTLE_TRANSITS = 4.0
JOULE_EXPANDED_TRANSITS = 6.0

#: Trace samples, from the end of each stage, averaged into its disorder.
JOULE_MEASURE_SAMPLES = 4


@dataclass(frozen=True)
class JouleReport:
    """Free expansion bookkeeping: measured disorder change and the
    closed-form entropy change across the same pair of equilibria.

    Unless the run kept its traces, ``trace_before`` and ``trace_after``
    hold only the measured tail of each stage, its last
    ``JOULE_MEASURE_SAMPLES`` rows."""

    volume_ratio: float
    d_hat_before: float
    d_hat_after: float
    delta_d_hat: float
    delta_s_per_particle_kb: float   # closed form, units of k_B
    ln_ratio: float                  # classical expectation
    trace_before: DisorderTrace
    trace_after: DisorderTrace


def run_joule_expansion(config: SimConfig, volume_ratio: float,
                        keep_traces: bool = False) -> JouleReport:
    """Equilibrate, stretch the box x-edge by ``volume_ratio`` (removing a
    partition), re-equilibrate, and compare disorder before and after.
    One state, built by ``init_sim`` at equilibrium in the settled box,
    runs through both stages, a ``simulate`` call each.

    ``config.duration`` is not used: the stages run for
    ``JOULE_SETTLE_TRANSITS`` transit times before the expansion and
    ``JOULE_EXPANDED_TRANSITS`` after it, stepped to every multiple of
    ``config.dt_out``.  Each stage's disorder is the mean of its last
    ``JOULE_MEASURE_SAMPLES`` trace rows, and only those are sampled
    unless ``keep_traces`` asks for the full traces; the report is the
    same bit for bit either way.  Both stages quantize against the
    expanded box, so the measured disorder change reflects the state and
    not the ruler.  At ratio 1 the expanded stage is the settled one, so
    each change is exactly zero.  The closed-form entropy step uses the
    statistics the species' spin implies, and is computed before either
    stage runs, so a stage the closed forms cannot describe fails first.
    """
    if not math.isfinite(volume_ratio) or volume_ratio < 1.0:
        raise DomainError("volume_ratio must be >= 1 (free expansion only)")
    expanded_volume = config.volume * volume_ratio
    if not expanded_volume < math.inf:
        raise DomainError(f"volume_ratio {volume_ratio:g} makes the "
                          "expanded box's volume overflow")
    expanded = (config.box[0] * volume_ratio, config.box[1], config.box[2])
    statistics = species_statistics(config.species)

    stage1 = replace(config, duration=JOULE_SETTLE_TRANSITS * config.t_b)
    t_b_expanded = expanded_volume ** (1.0 / 3.0) / config.v_th
    stage2 = replace(config, box=expanded,
                     duration=JOULE_EXPANDED_TRANSITS * t_b_expanded)
    try:
        s1, s2 = (state_equations(GasSpec(config.T_wall, stage.volume,
                                          float(config.n_particles),
                                          config.species, statistics))
                  for stage in (stage1, stage2))
    except DomainError as exc:
        raise DomainError(
            f"the entropy step from V = {stage1.volume:g} to "
            f"{stage2.volume:g} m^3 (volume_ratio {volume_ratio:g}) at "
            f"T_wall {config.T_wall:g} K is not defined: {exc}") from exc
    delta_s = ((s2.kappa + 1.5 * s2.gamma) - (s1.kappa + 1.5 * s1.gamma))

    tail = None if keep_traces else JOULE_MEASURE_SAMPLES
    state = init_sim(stage1, "equilibrium")
    before = simulate(stage1, state, reference_box=expanded, tail=tail)
    after = before if volume_ratio == 1.0 else simulate(
        stage2, state, reference_box=expanded, tail=tail)
    d1 = float(before.d_hat[-JOULE_MEASURE_SAMPLES:].mean())
    d2 = float(after.d_hat[-JOULE_MEASURE_SAMPLES:].mean())

    return JouleReport(
        volume_ratio=volume_ratio,
        d_hat_before=d1,
        d_hat_after=d2,
        delta_d_hat=d2 - d1,
        delta_s_per_particle_kb=delta_s,
        ln_ratio=math.log(volume_ratio),
        trace_before=before,
        trace_after=after,
    )
