"""Event-driven simulator: exact ballistic stepping, the three wall
models, disorder traces, relaxation timing, and the expansion experiment.

Statistical checks run on fixed seeds with empirically frozen margins;
they are deterministic, not flaky."""
import contextlib
import dataclasses
import hashlib
import math
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kolgas import sim as simmod
from kolgas.constants import K_BOLTZMANN as KB, species_lookup
from kolgas.errors import DomainError, NoPlateauError
from kolgas.randomness import two_cpus
from kolgas.thermo import GasSpec, state_equations
from kolgas.sim import (
    EVENT_COLUMNS,
    INIT_MODES,
    WALL_MODELS,
    DisorderTrace,
    SimConfig,
    init_sim,
    member_seed,
    relaxation_time,
    run_joule_expansion,
    sample_disorder,
    simulate,
    step_to,
)

HE3 = species_lookup("he3")
BOX = (0.035, 0.035, 0.035)


def make_config(n=800, wall_model="specular_random_sites", seed=0,
                samples_per_transit=8, transits=8.0, keep_events=True, **kw):
    # keeps the wall-event log, so that any test may read events(state)
    kw["keep_events"] = keep_events
    base = SimConfig(n_particles=n, box=BOX, T_wall=10.0, species=HE3,
                     wall_model=wall_model, seed=seed, dt_out=1.0,
                     duration=0.0, **kw)
    return SimConfig(n_particles=n, box=BOX, T_wall=10.0, species=HE3,
                     wall_model=wall_model, seed=seed,
                     dt_out=base.t_b / samples_per_transit,
                     duration=transits * base.t_b, **kw)


def events(state):
    """The wall-event log of ``state`` as one array per column."""
    empty = (np.empty(0), np.empty(0, dtype=np.int64), *[np.empty(0)] * 3)
    return {name: np.concatenate(column) for name, column in
            zip(EVENT_COLUMNS, zip(empty, *state.event_log))}


# --- config and init -----------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(n_particles=0),
    dict(n_particles=10**5 + 1),
    dict(box=(1.0, -1.0, 1.0)),
    dict(T_wall=0.0),
    dict(wall_model="sticky"),
    dict(seed=-1),
    dict(seed=2**64),
    dict(dt_out=0.0),
    dict(duration=-1.0),
    dict(perturbation=-0.1),
    dict(perturbation=11.0),
])
def test_config_validation(kw):
    good = dict(n_particles=10, box=BOX, T_wall=10.0, species=HE3,
                wall_model="smooth_specular", seed=0, dt_out=1e-5,
                duration=1e-4)
    good.update(kw)
    with pytest.raises(DomainError):
        SimConfig(**good)


def test_trace_length_is_checked_as_it_is_run():
    # the cap check reads the length simulate runs, rounded, and the
    # quotient duration / dt_out never reaches round() as inf
    kw = dict(n_particles=10, box=BOX, T_wall=10.0, species=HE3,
              wall_model="smooth_specular", seed=0, dt_out=1.0)
    assert SimConfig(duration=99999.4, **kw).n_samples == 10**5
    with pytest.raises(DomainError, match="at most 100000 samples"):
        SimConfig(duration=99999.6, **kw)
    with pytest.raises(DomainError, match="at most 100000 samples"):
        SimConfig(**dict(kw, dt_out=1e-300), duration=1e10)


def test_transit_time():
    cfg = make_config()
    v_th = math.sqrt(3.0 * KB * 10.0 / HE3.mass)
    assert cfg.v_th == pytest.approx(v_th, rel=1e-13)
    assert cfg.t_b == pytest.approx(0.035 / v_th, rel=1e-13)


def test_equilibrium_init_statistics():
    cfg = make_config(n=20_000, seed=3)
    state = init_sim(cfg, "equilibrium")
    assert np.all(state.pos >= 0.0) and np.all(state.pos <= np.array(BOX))
    # mean square speed -> 3 k T / m (seeded, ~1% accuracy at n=2e4)
    msq = float(np.mean(np.sum(state.vel**2, axis=1)))
    assert msq == pytest.approx(3.0 * KB * 10.0 / HE3.mass, rel=0.03)


def test_beam_init_is_maximally_ordered():
    cfg = make_config(n=1000)
    state = init_sim(cfg, "beam")
    assert np.all(state.vel[:, 0] == cfg.v_th)
    assert np.all(state.vel[:, 1:] == 0.0)
    assert np.all((state.pos > 0.0) & (state.pos < np.array(BOX)))
    # lattice positions: few distinct coordinates, no duplicates overall
    assert np.unique(state.pos[:, 0]).size <= 10
    assert np.unique(state.pos, axis=0).shape[0] == 1000
    d_hat0 = sample_disorder(state.pos, state.vel, cfg.box, cfg.box)[0]
    assert d_hat0 < 0.05 * (2 * 1000 * 10)  # near-zero initial disorder


def test_half_box_init():
    cfg = make_config(n=2000, seed=9)
    state = init_sim(cfg, "half_box")
    assert np.all(state.pos[:, 0] <= 0.5 * BOX[0])
    assert np.max(state.pos[:, 0]) > 0.4 * BOX[0]
    with pytest.raises(DomainError):
        init_sim(cfg, "warm_start")


def test_member_seed_is_frozen_splitting_rule():
    assert member_seed(0, 0) == 8668861027912758289
    assert member_seed(0, 1) == 4881901421217228719
    assert member_seed(12345, 7) == 13232092823079942430


# --- exact stepping -------------------------------------------------------------

def _folded_position(x0, v, t, length):
    """Closed-form specular bounce of one coordinate: reflect the free
    flight into [0, L] (triangle-wave fold)."""
    y = (x0 + v * t) % (2.0 * length)
    return 2.0 * length - y if y > length else y


def test_step_to_matches_analytic_fold():
    cfg = SimConfig(n_particles=1, box=BOX, T_wall=10.0, species=HE3,
                    wall_model="smooth_specular", seed=0, dt_out=1.0,
                    duration=1.0)
    state = init_sim(cfg, "equilibrium")
    x0 = (0.013, 0.020, 0.001)
    v0 = (201.0, -344.5, 55.25)
    state.pos[0] = x0
    state.vel[0] = v0
    t = 17.3 * cfg.t_b
    step_to(state, t)
    for axis in range(3):
        want = _folded_position(x0[axis], v0[axis], t, BOX[axis])
        assert state.pos[0, axis] == pytest.approx(want, abs=1e-12)


def test_step_backwards_rejected():
    cfg = make_config(n=10)
    state = init_sim(cfg, "equilibrium")
    step_to(state, cfg.t_b)
    with pytest.raises(DomainError):
        step_to(state, 0.5 * cfg.t_b)


@pytest.mark.parametrize("model", ["smooth_specular", "specular_random_sites"])
def test_energy_conservation(model):
    cfg = make_config(n=1500, wall_model=model, seed=4)
    state = init_sim(cfg, "equilibrium")
    half_m = 0.5 * cfg.species.mass
    e0 = half_m * float(np.sum(state.vel**2))
    step_to(state, 12.0 * cfg.t_b)
    assert abs(half_m * float(np.sum(state.vel**2)) - e0) <= 1e-12 * e0
    assert state.n_events > 0


def test_zero_perturbation_reduces_to_mirror():
    smooth = make_config(n=400, wall_model="smooth_specular", seed=6)
    tilted = make_config(n=400, wall_model="specular_random_sites", seed=6,
                         perturbation=0.0)
    s1 = init_sim(smooth, "equilibrium")
    s2 = init_sim(tilted, "equilibrium")
    t = 9.0 * smooth.t_b
    step_to(s1, t)
    step_to(s2, t)
    assert np.array_equal(s1.pos, s2.pos)
    assert np.array_equal(s1.vel, s2.vel)


def test_thermal_wall_gives_maxwell_speeds():
    # launch a cold beam at a thermal wall; a few transits later the gas
    # speed distribution must match the wall temperature
    cfg = make_config(n=4000, wall_model="langmuir_thermal", seed=1,
                      transits=6.0)
    run = simulate(cfg, "beam")
    speeds = np.linalg.norm(run.final_state.vel, axis=1)
    scale = math.sqrt(KB * 10.0 / HE3.mass)
    res = stats.kstest(speeds, stats.maxwell(scale=scale).cdf)
    assert res.pvalue > 1e-3
    # and the mean square speed is thermal, not the beam's
    assert float(np.mean(speeds**2)) == pytest.approx(
        3.0 * KB * 10.0 / HE3.mass, rel=0.05
    )


def test_wall_event_rate_matches_kinetic_theory():
    # an equilibrium gas touches walls ~1.38 times per particle transit
    cfg = make_config(n=2000, wall_model="smooth_specular", seed=8,
                      transits=4.0)
    run = simulate(cfg, "equilibrium")
    per = run.final_state.n_events / 2000 / 4.0
    assert 1.2 < per < 1.6


def test_event_log_contents():
    cfg = make_config(n=300, seed=2, transits=3.0)
    run = simulate(cfg, "equilibrium")
    ev = events(run.final_state)
    assert ev["t"].size == run.final_state.n_events > 0
    assert np.all((ev["t"] >= 0.0) & (ev["t"] <= cfg.duration * (1 + 1e-12)))
    assert ev["particle_id"].min() >= 0
    assert ev["particle_id"].max() < 300
    assert np.all((ev["exit_theta"] >= 0.0) & (ev["exit_theta"] <= math.pi))
    assert np.all((ev["exit_phi"] >= -math.pi) & (ev["exit_phi"] <= math.pi))
    assert np.all(ev["speed"] > 0.0)


def test_event_log_is_opt_in():
    cfg = make_config(n=300, seed=2, transits=3.0, keep_events=False)
    run = simulate(cfg, "equilibrium")
    logged = simulate(dataclasses.replace(cfg, keep_events=True),
                      "equilibrium")
    assert run.final_state.n_events == logged.final_state.n_events > 0
    assert run.final_state.event_log == []


def test_bit_identical_reruns():
    cfg = make_config(n=500, seed=11, transits=4.0)
    a = simulate(cfg, "beam")
    b = simulate(cfg, "beam")
    assert np.array_equal(a.trace.d_hat, b.trace.d_hat)
    assert np.array_equal(a.final_state.pos, b.final_state.pos)
    ea, eb = events(a.final_state), events(b.final_state)
    assert all(np.array_equal(ea[key], eb[key]) for key in ea)


#: Wall model -> (n_events, SHA-256 of the particle_id column) of the run
#: in test_event_stream_is_pinned.
PINNED_EVENT_STREAMS = {
    "specular_random_sites": (
        1494, "b696ed011872571f01192b8d6e80e39e4286380f95553e1f9f4acae625057d25"),
    "langmuir_thermal": (
        1250, "7bb4fddf46d54ee75746000a273f571bdcf7218d22e0584536911c2e63a6df1e"),
    "smooth_specular": (
        1233, "032e390820985c416682ecc5577b1dbe1b71f4e880abd7f7a6ab553bfe1e90bf"),
}


@pytest.mark.parametrize("model", WALL_MODELS)
def test_event_stream_is_pinned(model):
    # any change to the order or number of wall events, or to the RNG
    # draws behind them, shows here; re-pin only for a deliberate change
    cfg = make_config(n=300, wall_model=model, seed=2, transits=3.0)
    state = simulate(cfg, "equilibrium").final_state
    pid = events(state)["particle_id"]
    assert (state.n_events, hashlib.sha256(pid.tobytes()).hexdigest()) == \
        PINNED_EVENT_STREAMS[model]


@settings(deadline=None)
@given(model=st.sampled_from(WALL_MODELS), init=st.sampled_from(INIT_MODES),
       n=st.integers(1, 40), seed=st.integers(0, 2**64 - 1),
       t0_transits=st.floats(0.0, 1.0), transits=st.floats(0.01, 3.0))
def test_stepping_invariants(model, init, n, seed, t0_transits, transits):
    cfg = make_config(n=n, wall_model=model, seed=seed)
    state = init_sim(cfg, init)
    t0 = t0_transits * cfg.t_b
    step_to(state, t0)
    logged = state.n_events
    speed0 = np.linalg.norm(state.vel, axis=1)
    t = t0 + transits * cfg.t_b
    step_to(state, t)

    assert np.all((state.pos >= 0.0) & (state.pos <= np.array(BOX)))
    speed = np.linalg.norm(state.vel, axis=1)
    assert np.all(np.isfinite(speed) & (speed > 0.0))
    if model != "langmuir_thermal":  # mirror walls keep every speed
        np.testing.assert_allclose(speed, speed0, rtol=1e-12, atol=0.0)
    ev = events(state)
    assert state.n_events == ev["t"].size
    t_ev, pid = ev["t"][logged:], ev["particle_id"][logged:]
    assert np.all((t_ev > t0) & (t_ev <= t))
    # per particle, log order is time order and no two events coincide
    order = np.argsort(pid, kind="stable")
    same = pid[order][1:] == pid[order][:-1]
    assert np.all(np.diff(t_ev[order])[same] > 0.0)


# --- traces and relaxation -------------------------------------------------------

def test_beam_relaxes_with_random_sites():
    cfg = make_config(n=2000, seed=5)
    run = simulate(cfg, "beam")
    t_rel = relaxation_time(run.trace)
    assert 0.5 * run.t_b <= t_rel <= 4.0 * run.t_b
    # disorder monotone rise to plateau: final far above initial
    assert run.trace.d_hat[-1] > 10.0 * run.trace.d_hat[0]
    # mixing also flattens the orientation histogram
    assert run.trace.chi2_orient[-1] < 0.01 * run.trace.chi2_orient[0]


def test_smooth_control_never_disorders():
    cfg = make_config(n=2000, wall_model="smooth_specular", seed=5)
    run = simulate(cfg, "beam")
    with pytest.raises(NoPlateauError):
        relaxation_time(run.trace)


def test_equilibrium_start_relaxes_immediately():
    cfg = make_config(n=2000, seed=13)
    run = simulate(cfg, "equilibrium")
    assert relaxation_time(run.trace) == 0.0


def test_relaxation_time_needs_enough_samples():
    tr = DisorderTrace(t=np.arange(4.0), d_hat=np.ones(4),
                       k_orient=np.ones(4), k_nn=np.ones(4),
                       chi2_orient=np.zeros(4), chi2_pos=np.zeros(4),
                       l_total=100)
    with pytest.raises(NoPlateauError, match="too short"):
        relaxation_time(tr)


def test_relaxation_time_rejects_drifting_tail():
    d = np.linspace(30.0, 100.0, 32)  # still climbing, no plateau
    tr = DisorderTrace(t=np.arange(32.0), d_hat=d, k_orient=d / 2,
                       k_nn=d / 2, chi2_orient=np.zeros(32),
                       chi2_pos=np.zeros(32), l_total=100)
    with pytest.raises(NoPlateauError):
        relaxation_time(tr)


# --- expansion experiment ---------------------------------------------------------

def test_joule_expansion_increases_disorder():
    cfg = make_config(n=800, seed=17, samples_per_transit=4, transits=4.0)
    rep = run_joule_expansion(cfg, 4.0)
    assert rep.delta_d_hat > 0.0
    # closed-form entropy change: exactly N k_B ln(ratio) classically
    assert rep.delta_s_per_particle_kb == pytest.approx(math.log(4.0),
                                                        rel=1e-10)
    # the measured shift tracks the n/3 log2(ratio) ruler estimate loosely
    assert rep.delta_d_hat == pytest.approx(800 / 3 * 2.0, rel=0.5)


def test_joule_entropy_step_follows_species_statistics():
    # A cell dense enough (A = 6) that exclusive and unrestricted
    # occupation give visibly different entropy steps; spin-0 he4 takes
    # the unrestricted one.
    he4 = species_lookup("he4")
    side, temp, n = 2e-8, 0.01, 2
    probe = SimConfig(n_particles=n, box=(side,) * 3, T_wall=temp,
                      species=he4, wall_model="specular_random_sites", seed=3,
                      dt_out=1.0, duration=0.0)
    rep = run_joule_expansion(
        dataclasses.replace(probe, dt_out=probe.t_b / 4.0), 4.0)

    def step(statistics):
        s1, s2 = (state_equations(GasSpec(temp, v, float(n), he4, statistics))
                  for v in (side**3, 4.0 * side**3))
        return (s2.kappa + 1.5 * s2.gamma) - (s1.kappa + 1.5 * s1.gamma)

    assert rep.delta_s_per_particle_kb == pytest.approx(step("bose"),
                                                        rel=1e-12)
    assert abs(step("fermi") - step("bose")) > 0.01


def test_joule_ratio_one_is_noop():
    cfg = make_config(n=400, seed=19, samples_per_transit=4, transits=4.0)
    rep = run_joule_expansion(cfg, 1.0)
    assert rep.delta_d_hat == 0.0
    assert rep.delta_s_per_particle_kb == 0.0
    assert rep.ln_ratio == 0.0


def test_joule_rejects_compression():
    cfg = make_config(n=400)
    with pytest.raises(DomainError):
        run_joule_expansion(cfg, 0.8)


# --- sampler process -----------------------------------------------------------

def assert_same_trace(a, b):
    for name in DisorderTrace._fields:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.fixture
def sampler():
    """The live sampler process of this interpreter."""
    live = simmod._sampler()
    if live is None:
        pytest.skip("no sampler here: one usable CPU or no fork")
    return live


def in_process(monkeypatch):
    monkeypatch.setattr(simmod, "_sampler", lambda: None)


def test_sampler_forks_with_scipy_loaded():
    # sim loads scipy.spatial only to sample, and the sampler before it
    # forks, so its child never imports scipy itself
    if not two_cpus():
        pytest.skip("no sampler here: one usable CPU")
    script = "\n".join([
        "import sys",
        "from multiprocessing.context import ForkProcess",
        "from kolgas import sim",
        "assert 'scipy' not in sys.modules",
        "start = ForkProcess.start",
        "def checked_start(self):",
        "    assert 'scipy.spatial' in sys.modules, 'forked without scipy'",
        "    start(self)",
        "ForkProcess.start = checked_start",
        "assert sim._sampler() is not None",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ,
                 PYTHONPATH=str(pathlib.Path(simmod.__file__).parents[1])),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("model", WALL_MODELS)
def test_sampler_trace_matches_in_process(model, sampler, monkeypatch):
    cfg = make_config(n=600, wall_model=model, seed=4, transits=3.0,
                      keep_events=False)
    shared = simulate(cfg, "beam")
    in_process(monkeypatch)
    alone = simulate(cfg, "beam")
    assert_same_trace(shared.trace, alone.trace)
    assert shared.final_state.n_events == alone.final_state.n_events


def test_sampler_at_the_particle_cap(sampler, monkeypatch):
    # with no transits the only row is the sampler's, so the snapshot
    # fills the shared buffer to its bound
    cfg = make_config(n=simmod.N_PARTICLES_CAP, seed=8, transits=0.0,
                      keep_events=False)
    shared = simulate(cfg, "equilibrium")
    assert simmod._sampler() is sampler
    in_process(monkeypatch)
    assert_same_trace(shared.trace, simulate(cfg, "equilibrium").trace)


def test_sampler_joule_matches_in_process(sampler, monkeypatch):
    # stage 2 swaps state.config and samples against reference_box
    cfg = make_config(n=500, seed=21, samples_per_transit=4, transits=4.0,
                      keep_events=False)
    shared = run_joule_expansion(cfg, 3.0)
    in_process(monkeypatch)
    alone = run_joule_expansion(cfg, 3.0)
    assert_same_trace(shared.trace_before, alone.trace_before)
    assert_same_trace(shared.trace_after, alone.trace_after)
    assert shared.delta_d_hat == alone.delta_d_hat


def test_sampler_terminated_between_runs(sampler):
    cfg = make_config(n=400, seed=9, transits=2.0, keep_events=False)
    first = simulate(cfg, "beam")
    sampler.process.terminate()
    sampler.process.join(timeout=10)
    assert not sampler.process.is_alive()
    again = simulate(cfg, "beam")
    assert_same_trace(first.trace, again.trace)
    fresh = simmod._sampler()
    assert fresh is not None and fresh.process.is_alive()
    assert fresh.process.pid != sampler.process.pid


def test_sampler_killed_mid_run(sampler, monkeypatch):
    # the rows the dead sampler owed are computed in this process
    cfg = make_config(n=400, seed=10, transits=2.0, keep_events=False)
    first = simulate(cfg, "beam")
    step_to_ = simmod.step_to
    calls = []

    def killing_step_to(state, t):
        calls.append(t)
        if len(calls) == 2:
            os.kill(sampler.process.pid, signal.SIGKILL)
        return step_to_(state, t)

    monkeypatch.setattr(simmod, "step_to", killing_step_to)
    again = simulate(cfg, "beam")
    assert_same_trace(first.trace, again.trace)
    sampler.process.join(timeout=10)
    assert not sampler.process.is_alive()


def test_sampler_forks_past_the_threaded_fork_warning(sampler, monkeypatch):
    # Python 3.12+ warns after a fork while the OS counts more than one
    # thread, which numpy's BLAS pool can make it do; pytest turns that
    # warning into an error, so the sampler must fork past it
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          "multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning)
        return pid

    sampler.close()
    monkeypatch.setattr(os, "fork", warning_fork)
    fresh = simmod._sampler()
    monkeypatch.undo()
    assert fresh is not None and fresh.process.is_alive()
    cfg = make_config(n=300, seed=5, transits=1.0, keep_events=False)
    shared = simulate(cfg, "beam")
    in_process(monkeypatch)
    assert_same_trace(shared.trace, simulate(cfg, "beam").trace)


def _simulate_in(conn, cfg):
    try:
        conn.send(("ok", simulate(cfg, "beam").trace))
    except BaseException as exc:
        conn.send(("error", repr(exc)))


# the fork that makes the daemonic process is the test's own, not the sampler's
@pytest.mark.filterwarnings(
    r"ignore:This process .*is multi-threaded:DeprecationWarning")
def test_simulate_in_a_daemonic_process(monkeypatch):
    # a multiprocessing.Pool worker is a daemon, and daemons may not start
    # children, so simulate there runs without the sampler
    cfg = make_config(n=300, seed=6, transits=1.0, keep_events=False)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_simulate_in, args=(send, cfg), daemon=True)
    child.start()
    try:
        assert receive.poll(120), "no reply from the daemonic process"
        status, value = receive.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert status == "ok", value
    in_process(monkeypatch)
    assert_same_trace(value, simulate(cfg, "beam").trace)


@pytest.mark.parametrize("transits", [0.0, 1.0])
def test_sampler_error_reaches_caller(transits, sampler, monkeypatch):
    # one particle has no nearest neighbour; with no transits the only row
    # is the sampler's
    cfg = make_config(n=1, seed=3, transits=transits, keep_events=False)
    with pytest.raises(DomainError, match="nearest-neighbour"):
        simulate(cfg, "beam")
    # the old sampler has exited, and a fresh one serves the next run with
    # no row left over from the failed one
    sampler.process.join(timeout=10)
    assert not sampler.process.is_alive()
    fresh = simmod._sampler()
    assert fresh is not None and fresh.process.is_alive()
    assert fresh.process.pid != sampler.process.pid
    cfg = make_config(n=300, seed=3, transits=1.0, keep_events=False)
    shared = simulate(cfg, "beam")
    assert simmod._sampler() is fresh
    in_process(monkeypatch)
    assert_same_trace(shared.trace, simulate(cfg, "beam").trace)


# --- the sampler's two slots ----------------------------------------------------

def alone_run(cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(simmod, "_sampler", lambda: None)
        return simulate(cfg, "beam")


def count_parent_samples(monkeypatch):
    """The positions of each row this process samples; a sampler forked
    before the patch keeps the original function."""
    calls = []
    original = simmod.sample_disorder

    def counting(*args):
        calls.append(args[0].tobytes())
        return original(*args)

    monkeypatch.setattr(simmod, "sample_disorder", counting)
    return calls


@contextlib.contextmanager
def stopped(sampler, monkeypatch):
    """Hold the sampler process stopped; a live one resumes on exit, or
    after 5 s, so that a run waiting on it fails instead of hanging."""
    pid = sampler.process.pid

    def resume():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGCONT)

    # the watchdog thread would turn the sampler off in _sampler()
    monkeypatch.setattr(simmod, "_sampler", lambda: sampler)
    watchdog = threading.Timer(5.0, resume)
    os.kill(pid, signal.SIGSTOP)
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()
        watchdog.join(timeout=10)
        if sampler.process.is_alive():
            resume()


def after_submit(sampler, monkeypatch, k, act):
    """Call ``act`` just after the ``k``-th snapshot from now goes out."""
    submit, count = sampler.submit, []

    def counting_submit(state, reference_box):
        submit(state, reference_box)
        count.append(1)
        if len(count) == k:
            act()

    monkeypatch.setattr(sampler, "submit", counting_submit)


def test_stalled_sampler_does_not_stall_the_run(sampler, monkeypatch):
    # a stopped sampler holds the first two rows, and this process samples
    # every other row, the last one too; the sampler resumes only when the
    # run first waits on it
    cfg = make_config(n=300, seed=11, transits=2.0, keep_events=False)
    alone = alone_run(cfg, monkeypatch)
    result = sampler.result

    def resuming_result(wait=True):
        if not wait:
            return result(wait=False)
        os.kill(sampler.process.pid, signal.SIGCONT)
        return result()

    monkeypatch.setattr(sampler, "result", resuming_result)
    calls = count_parent_samples(monkeypatch)
    with stopped(sampler, monkeypatch):
        shared = simulate(cfg, "beam")
    sampled_here = len(calls)
    assert sampled_here == alone.trace.t.size - 2
    assert_same_trace(shared.trace, alone.trace)


def test_idle_sampler_takes_the_rows(sampler, monkeypatch):
    # stepping is slow, so the sampler is done with each row before the
    # next one, the last row included
    cfg = make_config(n=300, seed=12, transits=2.0, keep_events=False)
    alone = alone_run(cfg, monkeypatch)
    step_to_ = simmod.step_to

    def slow_step_to(state, t):
        time.sleep(0.05)
        return step_to_(state, t)

    monkeypatch.setattr(simmod, "step_to", slow_step_to)
    calls = count_parent_samples(monkeypatch)
    shared = simulate(cfg, "beam")
    sampled_here = len(calls)
    assert sampled_here <= 1
    assert_same_trace(shared.trace, alone.trace)


def test_sampler_killed_holding_two_rows(sampler, monkeypatch):
    # the sampler is stopped, so it has sampled neither row when it dies;
    # both are sampled here from their slots, and the rest too
    cfg = make_config(n=300, seed=13, transits=1.0, keep_events=False)
    alone = alone_run(cfg, monkeypatch)
    after_submit(sampler, monkeypatch, 2,
                 lambda: os.kill(sampler.process.pid, signal.SIGKILL))
    calls = count_parent_samples(monkeypatch)
    with stopped(sampler, monkeypatch):
        shared = simulate(cfg, "beam")
    sampled_here = len(calls)
    assert sampled_here == alone.trace.t.size
    sampler.process.join(timeout=10)
    assert not sampler.process.is_alive()
    assert_same_trace(shared.trace, alone.trace)


def test_sampler_error_on_the_second_held_row(sampler, monkeypatch):
    # a sampler forked with a sample_disorder that fails on row 1's
    # positions holds rows 0 and 1; it samples row 0, exits on row 1, and
    # this process samples row 1 again, which raises the same error
    cfg = make_config(n=300, seed=14, transits=1.0, keep_events=False)
    with monkeypatch.context() as m:
        m.setattr(simmod, "_sampler", lambda: None)
        seen = count_parent_samples(m)
        alone = simulate(cfg, "beam")
    row_1 = seen[1]
    original = simmod.sample_disorder

    def failing(pos, vel, box, reference_box=None):
        if pos.tobytes() == row_1:
            raise ArithmeticError("row 1 has no disorder")
        return original(pos, vel, box, reference_box)

    sampler.close()
    with monkeypatch.context() as m:
        m.setattr(simmod, "sample_disorder", failing)
        held = simmod._sampler()
        after_submit(held, m, 2,
                     lambda: os.kill(held.process.pid, signal.SIGCONT))
        with stopped(held, m), pytest.raises(
                ArithmeticError, match="row 1 has no disorder"):
            simulate(cfg, "beam")
    held.process.join(timeout=10)
    assert held.process.exitcode == 0  # it exited on the error, unkilled
    fresh = simmod._sampler()
    assert fresh is not None and fresh.process.is_alive()
    assert fresh.process.pid != held.process.pid
    shared = simulate(cfg, "beam")
    assert simmod._sampler() is fresh
    assert_same_trace(shared.trace, alone.trace)
