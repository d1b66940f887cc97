"""Command-line behaviour: artifact schemas, manifests, exit codes, and
byte-level determinism of reruns."""
import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import resource
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import zlib

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

import kolgas
from kolgas.cli import (_ROWS_PER_WRITE, _SWEEP_FORK_ROWS, RELAX_SEEDS_CAP,
                        SWEEP_POINTS_CAP, _write_events, main)
from kolgas.constants import species_lookup
from kolgas.errors import DomainError
from kolgas.thermo import GasSpec, state_equations

from conftest import load_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def manifest_of_csv(path) -> dict:
    first = path.read_text().splitlines()[0]
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


# --- state / sweep ---------------------------------------------------------------

def test_state_report_schema_and_values(capsys):
    code, out, _ = run_cli(capsys, "state", "--vessel-side", "0.035")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("state.schema.json"))
    assert doc["state"]["lambda_th_angstrom"] == pytest.approx(3.179, abs=0.01)
    assert doc["lengths"]["regime"] == "collisionless"
    assert doc["warnings"] == []


# SHA-256 of stdout, taken from the code whose ThermoState and
# LengthHierarchy also carried the values the report now computes itself
@pytest.mark.parametrize("argv, digest", [
    (("--vessel-side", "0.035"),
     "08059dd861c93d827cd9e24b4f14ce046109bfd626d3ae3d7c5e5c3561eac16f"),
    (("--gas", "he4"),
     "93094d946c04c68e4ebef89cc7dd6785fc947c9c101e270938f36ff62f4b3dc1"),
], ids=["he3-vessel-side", "he4"])
def test_state_pinned_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "state", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_state_report_values_from_their_homes(capsys):
    code, out, _ = run_cli(capsys, "state", "--vessel-side", "0.035")
    assert code == 0
    doc = json.loads(out)
    he3 = species_lookup("he3")
    st = state_equations(GasSpec(10.0, 1.8e-4, 1.7e16, he3, "fermi"))
    assert doc["state"]["energy_exponents"] == {
        "T": 1.5 * st.gamma, "V": st.gamma, "N": -st.gamma}
    assert doc["state"]["lambda_V_m"] == st.lambda_th * 1.7e16 ** (1 / 3)
    lengths = doc["lengths"]
    assert lengths["vessel_side_m"] == 0.035
    assert lengths["thermal_m"] == st.lambda_th
    assert lengths["lj_radius_m"] == he3.a_LJ
    assert lengths["bohr_like_radius_m"] == he3.a_B


def test_state_warns_outside_regimes(capsys):
    code, out, _ = run_cli(capsys, "state", "--count", "1e19",
                           "--temp", "20.0")
    assert code == 0
    doc = json.loads(out)
    assert any("collisionless" in w for w in doc["warnings"])
    assert any("cool window" in w for w in doc["warnings"])


def test_state_degenerate_exits_2(capsys):
    code, _, err = run_cli(capsys, "state", "--temp", "0.001",
                           "--volume", "1e-12", "--count", "1e20")
    assert code == 2
    assert "degenerate" in err


def test_state_unknown_gas_exits_2(capsys):
    code, _, err = run_cli(capsys, "state", "--gas", "xenon")
    assert code == 2
    assert "xenon" in err


def test_sweep_deterministic_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "sweep", "--var", "T", "--from", "2",
                             "--to", "50", "--points", "9", "--log",
                             "--output", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 2 + 9  # manifest, header, rows
    man = manifest_of_csv(out1)
    jsonschema.validate(man, load_schema("manifest.schema.json"))
    assert man["command"] == "sweep"
    header = lines[1].split(",")
    assert header[0] == "T" and "pressure_Pa" in header


SWEEP_V = ("sweep", "--var", "V", "--from", "1e-5", "--to", "1e-3",
           "--points", "5")


@pytest.mark.parametrize("argv", [("state",), SWEEP_V])
def test_statistics_default_follows_species(capsys, argv):
    _, default, _ = run_cli(capsys, *argv, "--gas", "he4")
    _, explicit, _ = run_cli(capsys, *argv, "--gas", "he4",
                             "--statistics", "bose")
    assert default == explicit
    assert '"statistics": "bose"' in default


@pytest.mark.parametrize("argv", [("state",), SWEEP_V])
@pytest.mark.parametrize("gas, statistics", [("he4", "fermi"), ("he3", "bose")])
def test_statistics_the_spin_rules_out_exits_2(capsys, argv, gas, statistics):
    code, out, err = run_cli(capsys, *argv, "--gas", gas,
                             "--statistics", statistics)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_rejects_bad_variable(capsys):
    code, _, err = run_cli(capsys, "sweep", "--var", "P", "--from", "1",
                           "--to", "2", "--points", "3")
    assert code == 2
    assert "T, V" in err


def test_sweep_rejects_single_point(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--var", "V", "--from", "1e-4",
                         "--to", "2e-4", "--points", "1")
    assert code == 2


def test_sweep_rejects_points_above_the_cap(capsys):
    # 10^9 rows would need gigabytes; the cap turns that into exit 2
    code, out, err = run_cli(capsys, "sweep", "--var", "T", "--from", "3",
                             "--to", "4", "--points", str(10**9))
    assert code == 2
    assert out == ""
    assert str(SWEEP_POINTS_CAP) in err


# SHA-256 of stdout, taken from the code that formatted each field with
# format(x, ".17g") and wrote the file as one string; the 5000-row V
# sweep spans more than one of the writer's blocks.  The 10^4-row T
# sweep's digest was taken from the code that formatted every row in one
# process; where this process may fork, a child formats half its blocks
@pytest.mark.parametrize("argv, digest", [
    (("--gas", "he3", "--var", "T", "--from", "2", "--to", "40",
      "--points", "7", "--log"),
     "12f79a3ba07faa956061164232f3d62eca950d2e8931d31d3c01afc959ed7cce"),
    (("--gas", "he4", "--var", "V", "--from", "1e-6", "--to", "1e-2",
      "--points", "5000"),
     "07a4edf2ac300be2ecef8b6582e8435eb3134828cd024ac9432679c25e9f8017"),
    (("--gas", "he4", "--var", "N", "--from", "1e10", "--to", "1e18",
      "--points", "7", "--log"),
     "e08f8d7d12f38d6a505c56daf3ba14e575f81f1221464817f061b55101389fb6"),
    (("--gas", "he3", "--var", "N", "--from", "1e10", "--to", "1e18",
      "--points", "7"),
     "1b5f3e45aeea4ffa4a16ee64034761269bb4689a573b7a7798f51d1b60d1a5fc"),
    (("--gas", "he3", "--var", "T", "--from", "2", "--to", "40",
      "--points", "10000", "--log"),
     "655a8f5010899325d055829426d26f4ab36880b8cc3f8d3a6d92531734dcf730"),
], ids=["he3-T-log", "he4-V-linear", "he4-N-log", "he3-N-linear",
        "he3-T-log-10k"])
def test_sweep_pinned_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def _sweep_rows(var, gas, start, stop, points, log):
    """The rows of a sweep from the default state, each field formatted
    by itself with format(x, ".17g"); None if any row leaves the domain or
    holds a value that is not finite."""
    species = species_lookup(gas)
    statistics = "fermi" if gas == "he3" else "bose"
    expected = []
    for value in (np.geomspace if log else np.linspace)(start, stop, points):
        point = {"T": 10.0, "V": 1.8e-4, "N": 1.7e16, var: float(value)}
        try:
            st = state_equations(GasSpec(point["T"], point["V"], point["N"],
                                         species, statistics))
        except DomainError:
            return None
        row = (float(value), st.lambda_th, st.M, st.A, st.kappa, st.gamma,
               st.F, st.S, st.P, st.mu, st.U, st.c_V)
        if not all(map(math.isfinite, row)):
            return None
        expected.append(",".join(format(x, ".17g") for x in row))
    return expected


# every grid point of these ranges is far from degeneracy for both gases
_SWEEP_RANGES = {"T": (0.0, 2.0), "V": (-8.0, 0.0), "N": (3.0, 20.0)}


@settings(max_examples=60, deadline=None)
@given(var=strat.sampled_from("TVN"), gas=strat.sampled_from(["he3", "he4"]),
       ends=strat.tuples(strat.floats(0.0, 1.0), strat.floats(0.0, 1.0)),
       points=strat.integers(2, 20), log=strat.booleans())
def test_sweep_rows_match_per_field_format(var, gas, ends, points, log):
    lo, hi = _SWEEP_RANGES[var]
    start, stop = (10.0 ** (lo + (hi - lo) * u) for u in ends)
    argv = ["sweep", "--gas", gas, "--var", var, "--from", repr(start),
            "--to", repr(stop), "--points", str(points)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--log"] * log) == 0
    rows = out.getvalue().splitlines()[2:]
    assert rows == _sweep_rows(var, gas, start, stop, points, log)


@functools.cache
def _domain_edge(var, gas, inside, outside):
    """The last value, going from ``inside`` towards ``outside``, at which
    the default state with ``var`` at that value is in the domain."""
    def ok(value):
        return _sweep_rows(var, gas, value, value, 2, False) is not None

    assert ok(inside) and not ok(outside)
    while True:
        middle = math.sqrt(inside) * math.sqrt(outside)
        if not min(inside, outside) < middle < max(inside, outside):
            return inside
        inside, outside = (middle, outside) if ok(middle) else (inside, middle)


#: (var, gas, inside, outside) around each edge of a default-state
#: sweep's domain: 2A = 1 for he3 in T and N, A underflowing for he4 at
#: low T, and the last finite row at high T and V, where the slot count
#: overflows (at high T before lambda_th^3 underflows), and at low N,
#: where A does.
_DOMAIN_EDGES = [("T", "he3", 10.0, 1e-9), ("N", "he3", 1.7e16, 1e30),
                 ("T", "he3", 10.0, 1e300), ("T", "he4", 10.0, 1e300),
                 ("T", "he4", 10.0, 1e-300), ("V", "he3", 1.8e-4, 1e300),
                 ("V", "he4", 1.8e-4, 1e300), ("N", "he3", 1.7e16, 1e-300),
                 ("N", "he4", 1.7e16, 1e-300)]

#: decimal exponents of a grid end's distance from its edge: decades,
#: about a thousand floats, or none
_EDGE_SHIFT = strat.one_of(strat.floats(-2.0, 2.0),
                           strat.floats(-1e-13, 1e-13), strat.just(0.0))


@settings(max_examples=150, deadline=None)
@given(edge=strat.sampled_from(_DOMAIN_EDGES),
       shifts=strat.tuples(_EDGE_SHIFT, _EDGE_SHIFT),
       points=strat.integers(2, 20), log=strat.booleans(),
       to_file=strat.booleans())
def test_sweep_near_a_domain_edge_writes_every_row_or_nothing(
        edge, shifts, points, log, to_file):
    # the grid's two extremes decide it, so a sweep that fails on any row
    # fails before it opens its output
    var, gas = edge[:2]
    value = _domain_edge(*edge)
    start, stop = (value * 10.0 ** shift for shift in shifts)
    expected = _sweep_rows(var, gas, start, stop, points, log)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sweep.csv"
        argv = ["sweep", "--gas", gas, "--var", var, "--from", repr(start),
                "--to", repr(stop), "--points", str(points),
                *["--log"] * log, *["--output", str(path)] * to_file]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if expected is None:
            assert code == 2
            assert out.getvalue() == "" and not path.exists()
            assert err.getvalue().startswith("error: ")
        else:
            assert code == 0
            rows = (path.read_text() if to_file
                    else out.getvalue()).splitlines()[2:]
            assert rows == expected
            assert all(math.isfinite(float(x))
                       for row in rows for x in row.split(","))


def test_sweep_degenerate_mid_grid_exits_2_and_writes_nothing(tmp_path,
                                                              capsys):
    # 2A falls below 1 at N = 1e26, the 11th of 13 rows
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--var", "N", "--from",
                                "1e16", "--to", "1e28", "--points", "13",
                                "--log", "--output", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: degenerate regime")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # 2A falls below 1 at the 11th of 13 rows, and at the last of 13
    ("--var", "N", "--from", "1e16", "--to", "1e28", "--points", "13",
     "--log"),
    ("--var", "T", "--from", "40", "--to", "1e-5", "--points", "13"),
])
def test_sweep_degenerate_at_one_end_stops_after_two_states(capsys,
                                                            monkeypatch,
                                                            argv):
    calls = []

    def counting(spec):
        calls.append(spec)
        return state_equations(spec)

    monkeypatch.setattr("kolgas.cli.state_equations", counting)
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: degenerate regime")
    assert len(calls) <= 2


def test_sweep_memory_stays_bounded():
    # rows are formatted and written a block at a time; holding the whole
    # 10^5-row table before writing it peaked at 33.9 MiB
    argv = ["sweep", "--var", "T", "--from", "2", "--to", "40", "--points",
            "100000", "--output", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def _record_forks(monkeypatch) -> list[int]:
    """The pid of each child ``os.fork`` makes from here on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _force_fork(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(kolgas.sim, "may_fork", lambda: on)


def _assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _big_sweep(points: int) -> tuple[str, ...]:
    return ("sweep", "--var", "T", "--from", "2", "--to", "40", "--points",
            str(points), "--log")


#: Rows of a sweep that forks its child: an odd count of blocks.
_CHILD_ROWS = _SWEEP_FORK_ROWS + _ROWS_PER_WRITE


@pytest.mark.parametrize("points, forks", [
    (_SWEEP_FORK_ROWS - 1, 0), (_SWEEP_FORK_ROWS, 1),
    (_SWEEP_FORK_ROWS + 3 * _ROWS_PER_WRITE + 3, 1),
    (_SWEEP_FORK_ROWS + 4 * _ROWS_PER_WRITE, 1)])
def test_sweep_bytes_are_the_same_with_and_without_the_child(
        capsys, monkeypatch, points, forks):
    pids = _record_forks(monkeypatch)
    _force_fork(monkeypatch, False)
    code, alone, _ = run_cli(capsys, *_big_sweep(points))
    assert code == 0 and pids == []
    _force_fork(monkeypatch, True)
    code, shared, _ = run_cli(capsys, *_big_sweep(points))
    assert code == 0 and len(pids) == forks
    assert shared == alone
    assert len(alone.splitlines()) == 2 + points
    _assert_reaped(pids)


@pytest.mark.parametrize("rows_sent", [0, _ROWS_PER_WRITE + 5])
def test_sweep_formats_the_blocks_of_a_child_that_died(capsys, monkeypatch,
                                                       rows_sent):
    # the child exits after formatting rows_sent rows: before its first
    # block, or part-way through its second
    _force_fork(monkeypatch, False)
    _, alone, _ = run_cli(capsys, *_big_sweep(_CHILD_ROWS))
    parent, calls = os.getpid(), []

    def dying(spec):
        if os.getpid() != parent:
            calls.append(spec)
            if len(calls) > rows_sent:
                os._exit(1)
        return state_equations(spec)

    monkeypatch.setattr("kolgas.cli.state_equations", dying)
    pids = _record_forks(monkeypatch)
    _force_fork(monkeypatch, True)
    code, shared, _ = run_cli(capsys, *_big_sweep(_CHILD_ROWS))
    assert code == 0 and len(pids) == 1
    assert shared == alone
    _assert_reaped(pids)


def test_sweep_formats_a_block_its_child_sent_in_part(capsys, monkeypatch):
    # the child dies part-way through sending its first block, as when the
    # OOM killer takes it: the pipe holds a length and part of the text
    _force_fork(monkeypatch, False)
    _, alone, _ = run_cli(capsys, *_big_sweep(_CHILD_ROWS))

    def cut_short(text, blocks, reader, writer):
        os.write(writer.fileno(), struct.pack("!i", 1 << 20) + b"2,1.5")
        os._exit(1)

    monkeypatch.setattr("kolgas.cli._send_blocks", cut_short)
    pids = _record_forks(monkeypatch)
    _force_fork(monkeypatch, True)
    code, shared, _ = run_cli(capsys, *_big_sweep(_CHILD_ROWS))
    assert code == 0 and len(pids) == 1
    assert shared == alone
    _assert_reaped(pids)


def test_sweep_child_is_reaped_after_a_write_error(capsys, monkeypatch):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    pids = _record_forks(monkeypatch)
    _force_fork(monkeypatch, True)
    code, out, err = run_cli(capsys, *_big_sweep(10 * _ROWS_PER_WRITE),
                             "--output", "/dev/full")
    assert code == 3 and len(pids) == 1
    assert err.startswith("error: /dev/full: ") and err.count("\n") == 1
    _assert_reaped(pids)


def test_sweep_child_is_reaped_after_an_interrupt(monkeypatch):
    # ^C reaches this process part-way through its second block
    parent, calls = os.getpid(), []

    def interrupted(spec):
        if os.getpid() == parent:
            calls.append(spec)
            if len(calls) == 2 + _ROWS_PER_WRITE + 7:  # the extremes first
                raise KeyboardInterrupt
        return state_equations(spec)

    monkeypatch.setattr("kolgas.cli.state_equations", interrupted)
    pids = _record_forks(monkeypatch)
    _force_fork(monkeypatch, True)
    with pytest.raises(KeyboardInterrupt):
        main([*_big_sweep(10 * _ROWS_PER_WRITE), "--output", os.devnull])
    assert len(pids) == 1
    _assert_reaped(pids)


def test_sweep_with_a_thread_alive_stays_in_process(capsys, monkeypatch):
    # a forked child would inherit the thread's locks, and Python 3.12+
    # warns at such a fork, an error here; a sim relax afterwards still
    # gets its sampler
    pids = _record_forks(monkeypatch)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60.0,))
    waiting.start()
    try:
        code, alone, _ = run_cli(capsys, *_big_sweep(_CHILD_ROWS))
    finally:
        release.set()
        waiting.join(timeout=10)
    assert code == 0 and pids == [] and not waiting.is_alive()
    code, again, _ = run_cli(capsys, *_big_sweep(_CHILD_ROWS))
    assert code == 0 and again == alone
    may_fork = kolgas.sim.may_fork()
    assert len(pids) == may_fork
    _assert_reaped(pids)

    sampler, handed = kolgas.sim._sampler, []
    monkeypatch.setattr(kolgas.sim, "_sampler",
                        lambda: handed.append(sampler()) or handed[-1])
    code, _, _ = run_cli(capsys, "sim", "relax", *_SMALL_SIM)
    assert code == 0 and handed
    assert all((live is not None) == may_fork for live in handed)


# --- randomness pipeline -----------------------------------------------------------

def test_generate_audit_gap_pipeline(tmp_path, capsys):
    rng_file = tmp_path / "rng.lst"
    code, out, _ = run_cli(capsys, "randomness", "generate", "--kind", "rng",
                           "--n", "4000", "--k", "13", "--seed", "7",
                           "--output", str(rng_file))
    assert code == 0
    receipt = json.loads(out)
    jsonschema.validate(receipt, load_schema("generate.schema.json"))
    assert receipt["l_primitive"] == 4000 * 13

    code, out, _ = run_cli(capsys, "randomness", "audit",
                           "--input", str(rng_file))
    assert code == 0
    audit = json.loads(out)
    jsonschema.validate(audit, load_schema("audit.schema.json"))
    assert audit["gap_class"] == "random-like"

    box_file = tmp_path / "box.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "smooth-box",
            "--n", "4000", "--output", str(box_file))
    code, out, _ = run_cli(capsys, "randomness", "gap",
                           "--input", str(box_file))
    assert code == 0
    gap = json.loads(out)
    jsonschema.validate(gap, load_schema("gap.schema.json"))
    assert gap["label"] == "structured"


def test_generate_raw_round_trips(tmp_path, capsys):
    f1, f2 = tmp_path / "plain.lst", tmp_path / "packed.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "rng", "--n", "500",
            "--k", "9", "--seed", "3", "--output", str(f1))
    run_cli(capsys, "randomness", "generate", "--kind", "rng", "--n", "500",
            "--k", "9", "--seed", "3", "--raw", "--output", str(f2))
    code1, out1, _ = run_cli(capsys, "randomness", "audit", "--input", str(f1))
    code2, out2, _ = run_cli(capsys, "randomness", "audit", "--input", str(f2))
    a1, a2 = json.loads(out1), json.loads(out2)
    assert a1["k_hat_bits"] == a2["k_hat_bits"]
    assert f2.stat().st_size < f1.stat().st_size


@pytest.mark.parametrize("n, k", [(1000, 10), (20000, 15)])
def test_generate_rng_default_width_fits_n(tmp_path, capsys, n, k):
    code, out, _ = run_cli(capsys, "randomness", "generate", "--kind", "rng",
                           "--n", str(n), "--output", str(tmp_path / "r.lst"))
    assert code == 0
    assert json.loads(out)["k"] == k


def test_generate_output_to_stdout_exits_2(tmp_path, capsys, monkeypatch):
    # stdout carries the JSON receipt, so the list cannot go there too
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "randomness", "generate", "--kind",
                             "rng", "--n", "10", "--output", "-")
    assert code == 2
    assert out == ""
    assert "both write to stdout" in err
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("kind", ["rng", "smooth-box"])
@pytest.mark.parametrize("side", ["nan", "inf"])
def test_generate_non_finite_box_side_writes_no_file(tmp_path, capsys, kind,
                                                     side):
    # rng records the side in its receipt; smooth-box computes with it
    f = tmp_path / "x.lst"
    code, out, err = run_cli(capsys, "randomness", "generate", "--kind", kind,
                             "--n", "100", "--box-side", side,
                             "--output", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not f.exists()


@pytest.mark.parametrize("command", ["audit", "gap"])
@pytest.mark.parametrize("raw", [False, True])
def test_input_dash_reads_stdin(tmp_path, capsys, monkeypatch, command,
                                raw):
    f = tmp_path / "x.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "smooth-box",
            "--n", "300", *(["--raw"] if raw else []), "--output", str(f))
    code, out, _ = run_cli(capsys, "randomness", command, "--input", str(f))
    assert code == 0
    from_file = json.loads(out)
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(f.read_bytes())))
    code, out, _ = run_cli(capsys, "randomness", command, "--input", "-")
    assert code == 0
    from_stdin = json.loads(out)
    assert from_stdin.pop("manifest")["parameters"]["input"] == "-"
    from_file.pop("manifest")
    assert from_stdin == from_file


def test_gap_points_beyond_the_list_size(tmp_path, capsys):
    # past 13 points a 20-entry list already has every size from 8 to 20
    f = tmp_path / "x.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "rng", "--n", "20",
            "--seed", "5", "--output", str(f))
    traces = []
    for points in ("13", str(10**9)):
        code, out, _ = run_cli(capsys, "randomness", "gap", "--input",
                               str(f), "--points", points)
        assert code == 0
        gap = json.loads(out)
        traces.append((gap["prefix_bits"], gap["k_hat_bits"]))
    assert traces[0] == traces[1]
    assert traces[0][0] == [8 * 5 + 5 * i for i in range(13)]


@pytest.mark.parametrize("n", [1, 5, 7])
def test_gap_on_a_list_too_short_for_a_trace_exits_2(tmp_path, capsys, n):
    # prefixes start at 8 entries, so fewer than 10 give under 3 points
    f = tmp_path / "x.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "rng", "--n", str(n),
            "--output", str(f))
    code, out, err = run_cli(capsys, "randomness", "gap", "--input", str(f))
    assert code == 2
    assert out == ""
    assert "3 trace points" in err


def test_audit_malformed_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.lst"
    bad.write_text("not a header\n")
    code, _, err = run_cli(capsys, "randomness", "audit", "--input", str(bad))
    assert code == 3
    assert "header" in err


@pytest.mark.parametrize("body", [
    "1\n2 3\n",       # two data on one line
    "# note\n1\n",    # a comment line
    "",               # no body at all
])
def test_audit_malformed_decimal_body_exits_3(tmp_path, capsys, body):
    bad = tmp_path / "bad.lst"
    bad.write_text("2 8 tag\n" + body)
    code, out, err = run_cli(capsys, "randomness", "audit",
                             "--input", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_audit_missing_file_exits_3(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "randomness", "audit",
                         "--input", str(tmp_path / "nope.lst"))
    assert code == 3


def _cap_address_space():
    # 1 GiB, about three times what an audit at the list cap maps, so an
    # input read without a bound ends in a MemoryError, not a full machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("feed, path", [
    (None, "/dev/zero"),                   # no line break, so no header
    (None, "/dev/urandom"),                # a first line that is no header
    ("printf '2 8 tag\\n'; exec cat /dev/zero", "-"),   # an endless line
    ("printf '2 8 tag raw\\n'; exec cat /dev/zero", "-"),  # raw, too long
    ("printf '2 8 tag\\n'; exec yes ''", "-"),   # blank lines, no datum
], ids=["zero", "urandom", "decimal-body", "raw-body", "blank-lines"])
def test_audit_endless_input_exits_3(feed, path):
    # an input with no end fails on what its start shows, within the cap
    if not (os.path.exists("/dev/zero") and os.path.exists("/dev/urandom")):
        pytest.skip("no /dev/zero or /dev/urandom here")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(kolgas.__file__).parents[1]))
    argv = [sys.executable, "-m", "kolgas.cli", "randomness", "audit",
            "--input", path]
    with contextlib.ExitStack() as stack:
        stdin = None
        if feed is not None:
            feeder = stack.enter_context(
                subprocess.Popen(["sh", "-c", feed], stdout=subprocess.PIPE))
            stack.callback(feeder.kill)
            stdin = feeder.stdout
        done = subprocess.run(argv, stdin=stdin, env=env,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=_cap_address_space)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_audit_unknown_estimator_exits_2(tmp_path, capsys):
    f = tmp_path / "x.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "rng", "--n", "100",
            "--k", "7", "--output", str(f))
    code, _, _ = run_cli(capsys, "randomness", "audit", "--input", str(f),
                         "--estimator", "psychic")
    assert code == 2


@pytest.mark.parametrize("argv, option", [
    (("audit", "--estimator", "psychic"), "estimator"),
    (("gap", "--estimator", "psychic"), "estimator"),
    (("gap", "--points", "2"), "points"),
], ids=["audit-estimator", "gap-estimator", "gap-points"])
def test_bad_option_exits_2_before_the_input_is_read(tmp_path, capsys, argv,
                                                     option):
    # the input does not exist, so a command that read it first would
    # exit 3 for the file
    code, out, err = run_cli(capsys, "randomness", *argv,
                             "--input", str(tmp_path / "nope.lst"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option in err


# --- sim ---------------------------------------------------------------------------

RELAX_ARGS = ("sim", "relax", "--wall-model", "specular_random_sites",
              "--particles", "250", "--transits", "4",
              "--samples-per-transit", "4", "--seed", "21")


def test_sim_relax_report(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(capsys, *RELAX_ARGS,
                           "--trace-output", str(trace),
                           "--events-output", str(events))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("relax.schema.json"))
    run = doc["runs"][0]
    assert run["t_relax_s"] is not None
    assert run["n_wall_events"] > 0

    lines = trace.read_text().splitlines()
    assert lines[1] == "t,D_hat,K_orient,K_nn,chi2_orient,chi2_pos"
    assert len(lines) == 2 + 4 * 4 + 1
    jsonschema.validate(manifest_of_csv(trace),
                        load_schema("manifest.schema.json"))
    assert events.read_text().splitlines()[1] == \
        "t,particle_id,exit_theta,exit_phi,speed"


def test_trace_csv_holds_the_trace(tmp_path, capsys, monkeypatch):
    # each column of the trace CSV reads back, bit for bit, as the
    # DisorderTrace field at its position
    runs = []
    simulate = kolgas.sim.simulate

    def keep_run(*args, **kwargs):
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("kolgas.sim.simulate", keep_run)
    path = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, *RELAX_ARGS, "--trace-output", str(path))
    assert code == 0
    header, *rows = path.read_text().splitlines()[1:]
    names = header.split(",")
    columns = np.array([[float(x) for x in row.split(",")] for row in rows]).T
    trace = runs[-1]
    assert len(names) == len(columns) == len(trace) - 1
    for name, column, field in zip(names, columns, trace):
        assert column.tobytes() == np.asarray(field, float).tobytes(), name


def test_sim_relax_smooth_control_reports_no_plateau(capsys):
    code, out, _ = run_cli(capsys, "sim", "relax", "--wall-model",
                           "smooth_specular", "--particles", "250",
                           "--transits", "4", "--samples-per-transit", "4")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("relax.schema.json"))
    run = doc["runs"][0]
    assert run["t_relax_s"] is None
    assert "disorder" in run["no_plateau_reason"]


def test_sim_relax_short_trace_reports_no_plateau(capsys):
    # two samples cannot hold a plateau; the run is still reported
    code, out, _ = run_cli(capsys, "sim", "relax", "--wall-model",
                           "smooth_specular", "--particles", "50",
                           "--transits", "0.1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("relax.schema.json"))
    run = doc["runs"][0]
    assert run["t_relax_s"] is None
    assert run["no_plateau_reason"] == "trace too short to locate a plateau"


def test_sim_relax_seed_batch(capsys):
    code, out, _ = run_cli(capsys, *RELAX_ARGS, "--seeds", "3")
    assert code == 0
    doc = json.loads(out)
    seeds = [r["seed"] for r in doc["runs"]]
    assert len(set(seeds)) == 3


@pytest.mark.parametrize("seeds", [RELAX_SEEDS_CAP + 1, 10**9])
def test_sim_relax_rejects_seeds_above_the_cap(capsys, monkeypatch, seeds):
    # 10^9 member seeds would be built one SeedSequence at a time before
    # the first run; the cap turns that into exit 2 before any of them
    monkeypatch.setattr("kolgas.sim.member_seed", _must_not_run)
    monkeypatch.setattr("kolgas.sim.simulate", _must_not_run)
    code, out, err = run_cli(capsys, *RELAX_ARGS, "--seeds", str(seeds))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(RELAX_SEEDS_CAP) in err


def test_sim_relax_deterministic_stdout(capsys):
    _, out1, _ = run_cli(capsys, *RELAX_ARGS)
    _, out2, _ = run_cli(capsys, *RELAX_ARGS)
    assert out1 == out2


def test_sim_joule_report(tmp_path, capsys):
    prefix = tmp_path / "jt"
    code, out, _ = run_cli(capsys, "sim", "joule", "--wall-model",
                           "specular_random_sites", "--particles", "300",
                           "--samples-per-transit", "4", "--ratio", "4",
                           "--seed", "2", "--trace-prefix", str(prefix))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("joule.schema.json"))
    assert doc["disorder_increased"] is True
    assert doc["delta_s_per_particle_kb"] == pytest.approx(1.3862943611,
                                                           rel=1e-9)
    for suffix in (".before.csv", ".after.csv"):
        assert (tmp_path / ("jt" + suffix)).exists()


JOULE_ARGS = ("sim", "joule", "--wall-model", "specular_random_sites",
              "--particles", "200", "--seed", "2")


# SHA-256 of each artifact ("-" for stdout), taken from the code that
# sampled every row of both stages with or without --trace-prefix; D_hat
# is a zlib length, so another zlib build may give other bytes
_JOULE_JSON_DIGEST = \
    "bfd702b66bcd26a5c0a38ee488a399830b79163905560e9c03336626f7870694"


@pytest.mark.parametrize("extra, digests", [
    ((), {"-": _JOULE_JSON_DIGEST}),
    (("--trace-prefix", "jt"), {
        "-": _JOULE_JSON_DIGEST,
        "jt.before.csv":
            "afbc11ebabf64c2318b01ea9c48a619e4c6776585862df44b2a53831e7e6ecdb",
        "jt.after.csv":
            "e26855a09ceba145c5e2c9d56558e6dc6773900f92d310358ee1e8e438b201ba",
    }),
    (("--ratio", "1"), {"-":
        "1fafc8f6699e96d2ebc93eb06c1509998262f2d05310b7a9a166598606e3d988"}),
], ids=["json", "trace-prefix", "ratio-1"])
def test_sim_joule_pinned_bytes(tmp_path, capsys, monkeypatch, extra,
                                digests):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *JOULE_ARGS, *extra)
    assert code == 0
    for name, digest in digests.items():
        data = out.encode("ascii") if name == "-" else pathlib.Path(
            name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, (
            f"{name} under zlib {zlib.ZLIB_RUNTIME_VERSION}")


def test_sim_joule_report_is_the_same_with_traces(tmp_path, capsys):
    # without --trace-prefix only each stage's measured tail is sampled;
    # the report averages that tail of the written traces
    argv = ("sim", "joule", "--wall-model", "langmuir_thermal",
            "--particles", "150", "--samples-per-transit", "4",
            "--ratio", "3", "--seed", "8")
    _, plain, _ = run_cli(capsys, *argv)
    prefix = tmp_path / "jt"
    code, traced, _ = run_cli(capsys, *argv, "--trace-prefix", str(prefix))
    assert code == 0
    assert traced == plain
    doc = json.loads(plain)
    m = kolgas.sim.JOULE_MEASURE_SAMPLES
    for stage, key in (("before", "d_hat_before_bits"),
                       ("after", "d_hat_after_bits")):
        rows = (tmp_path / f"jt.{stage}.csv").read_text().splitlines()[2:]
        d_hat = np.array([float(row.split(",")[1]) for row in rows])
        assert len(d_hat) > m
        assert float(d_hat[-m:].mean()) == doc[key], stage


def test_sim_joule_bad_ratio_exits_2(capsys):
    code, _, err = run_cli(capsys, "sim", "joule", "--wall-model",
                           "smooth_specular", "--particles", "100",
                           "--ratio", "0.5")
    assert code == 2
    assert "ratio" in err


def test_sim_bad_particle_count_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sim", "relax", "--wall-model",
                         "smooth_specular", "--particles", "200000")
    assert code == 2


#: Inputs whose error line must name what is wrong with them: N a_LJ^2
#: underflows in the mean free path; the box volume overflows or
#: underflows; 3 k_B T underflows, so the thermal speed is 0; the sample
#: interval or the duration a cadence option gives is 0, negative or
#: overflows; the expanded box's volume overflows; the vessel side is
#: not a length; the slot count of a stage is inf, so the entropy step
#: is not defined; the slot count of a state is inf.
_NAMED_INPUTS = {
    ("state", "--count", "1e-308"): "count",
    ("sim", "relax", "--box-side", "1e103"): "box edges",
    ("sim", "relax", "--box-side", "1e-110"): "box edges",
    ("sim", "relax", "--temp", "1e-308"): "T_wall",
    ("sim", "joule", "--temp", "5e-324"): "T_wall",
    ("sim", "relax", "--samples-per-transit", "1e-320"):
        "--samples-per-transit",
    ("sim", "joule", "--box-side", "1e100", "--ratio", "1e10"):
        "volume_ratio",
    ("sim", "relax", "--transits", "-1"): "--transits",
    ("sim", "relax", "--samples-per-transit", "inf"): "--samples-per-transit",
    ("state", "--vessel-side", "nan"): "vessel side",
    ("state", "--vessel-side", "inf"): "vessel side",
    ("sim", "joule", "--box-side", "1e100", "--ratio", "1e8"):
        "entropy step from V = 1e+300 to 1e+308 m^3 (volume_ratio 1e+08) "
        "at T_wall 10 K",
    ("state", "--temp", "10", "--volume", "1e300", "--count", "1"):
        "T=10 K, V=1e+300 m^3 and particle count N=1 is not finite: M = inf",
}


@pytest.mark.parametrize("argv", [
    ("state", "--temp", "nan"),
    ("sim", "relax", "--samples-per-transit", "0"),
    ("sim", "relax", "--temp", "nan"),
    ("sim", "relax", "--transits", "inf"),
    ("sim", "joule", "--ratio", "inf"),
    ("state", "--vessel-side", "0"),
    ("sweep", "--var", "T", "--from", "1", "--to", "2", "--points", "3",
     "--temp", "nan"),
    ("randomness", "generate", "--kind", "rng", "--seed", "-1",
     "--output", os.devnull),
    ("randomness", "generate", "--kind", "rng", "--k", "70",
     "--output", os.devnull),
    ("randomness", "generate", "--kind", "rng", "--n", "-5", "--k", "7",
     "--output", os.devnull),
    ("sim", "relax", "--seeds", "-3"),
    ("sim", "relax", "--seeds", "0"),
    ("sim", "relax", "--seeds", "2", "--seed", "-1"),
    ("sim", "relax", "--particles", "1"),
    ("sim", "relax", "--transits", "1e6"),
    ("sim", "relax", "--samples-per-transit", "1e9"),
    ("sim", "joule", "--ratio", "1e300"),
    # 2 pi m k_B T underflows to 0, and lambda_th^3 does
    ("state", "--temp", "1e-300"),
    ("state", "--temp", "1e200"),
    ("sweep", "--var", "T", "--from", "1", "--to", "1e308", "--points", "3"),
    # checked before numpy computes with them, which would warn
    ("sweep", "--var", "T", "--from", "1", "--to", "inf", "--points", "3"),
    ("randomness", "generate", "--kind", "smooth-box", "--k", "63",
     "--output", os.devnull),
    ("randomness", "generate", "--kind", "smooth-box", "--k", "-1",
     "--output", os.devnull),
    # lambda_th^3 overflows
    ("state", "--temp", "1e-238"),
    ("sweep", "--gas", "he4", "--var", "T", "--from", "1e-238", "--to", "10",
     "--points", "3"),
    # A overflows, so kappa, gamma, F, ... are inf or nan on every row
    ("sweep", "--var", "T", "--from", "1", "--to", "2", "--points", "2",
     "--count", "5e-324"),
    *_NAMED_INPUTS,
])
def test_non_finite_or_zero_input_exits_2(capsys, argv):
    named = _NAMED_INPUTS.get(argv, "")
    if argv[0] == "sim":  # defaults first, so that argv's own values win
        argv = argv[:2] + ("--wall-model", "smooth_specular",
                           "--particles", "100") + argv[2:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("perturbation", ["1e6", "1e100", "1e160", "1e308"])
def test_perturbation_above_the_cap_exits_2(perturbation):
    # past the cap a scatter redraws its tilt for a very long time, or for
    # ever once the normal overflows, so the run goes in a child process
    # whose timeout turns a hang into a failure
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(kolgas.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "kolgas.cli", "sim", "relax", "--wall-model",
         "specular_random_sites", "--particles", "3", "--transits", "1",
         "--perturbation", perturbation],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert (done.stderr.startswith("error: perturbation ")
            and done.stderr.count("\n") == 1)


_SMALL_SIM = ("--wall-model", "smooth_specular", "--particles", "50",
              "--transits", "1")


@pytest.mark.parametrize("argv", [
    ("state", "--output"),
    ("randomness", "generate", "--kind", "rng", "--n", "100", "--output"),
    ("sim", "relax", *_SMALL_SIM, "--trace-output"),
    ("sim", "relax", *_SMALL_SIM, "--events-output"),
    ("sim", "joule", *_SMALL_SIM, "--trace-prefix"),
])
def test_unwritable_output_exits_3(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *argv, str(path))
    written = f"{path}.before.csv" if argv[-1] == "--trace-prefix" else path
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {written}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("sim", "relax", *_SMALL_SIM, "--trace-output", "-",
     "--output", os.devnull),
    ("sim", "joule", *_SMALL_SIM),
    _big_sweep(_CHILD_ROWS),
], ids=["relax", "joule", "sweep"])
def test_a_failed_fork_runs_in_one_process(capsys, monkeypatch, argv):
    # a fork that raises, as at the process limit, leaves the work to this
    # process, which writes the bytes it writes where it may not fork
    monkeypatch.setattr(kolgas.sim, "_SAMPLER", None)
    monkeypatch.setattr(kolgas.sim, "_FORK_FAILED", False)
    _force_fork(monkeypatch, False)
    code, alone, _ = run_cli(capsys, *argv)
    assert code == 0
    tried = _failing_fork(monkeypatch)
    _force_fork(monkeypatch, True)
    assert run_cli(capsys, *argv) == (0, alone, "")
    assert tried and kolgas.sim._SAMPLER is None


def _failing_fork(monkeypatch) -> list[bool]:
    """Make ``os.fork`` raise EAGAIN, as at the process limit; one entry
    for each fork tried."""
    tried = []

    def failing_fork():
        tried.append(True)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    return tried


def test_a_failed_fork_is_the_last(capsys, monkeypatch):
    # multiprocessing opens two pipes before it forks and closes neither
    # when the fork raises, so a process whose fork has failed forks no
    # more: the runs and sweeps after it leak nothing
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd here")
    monkeypatch.setattr(kolgas.sim, "_SAMPLER", None)
    monkeypatch.setattr(kolgas.sim, "_FORK_FAILED", False)
    monkeypatch.setattr(kolgas.sim, "two_cpus", lambda: True)
    assert kolgas.sim.may_fork()
    tried = _failing_fork(monkeypatch)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(10):
        assert run_cli(capsys, "sim", "relax", *_SMALL_SIM)[0] == 0
    for _ in range(5):
        assert run_cli(capsys, *_big_sweep(5000), "--output",
                       os.devnull)[0] == 0
    assert len(tried) == 1 and not kolgas.sim.may_fork()
    assert len(os.listdir("/proc/self/fd")) - before <= 4


@pytest.mark.parametrize("option", ["--output", "--trace-output",
                                    "--events-output"])
def test_empty_output_path_exits_3(capsys, option):
    code, out, err = run_cli(capsys, "sim", "relax", *_SMALL_SIM, option, "")
    assert code == 3
    assert out == ""
    assert err.startswith("error: : ") and err.count("\n") == 1


def test_empty_trace_prefix_writes_dot_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "sim", "joule", *_SMALL_SIM,
                         "--trace-prefix", "")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [".after.csv",
                                                         ".before.csv"]


@pytest.mark.parametrize("temp", ["1e304", "1e305"])
def test_thermal_tail_overflow_exits_2(capsys, temp):
    # speeds 40 sigma out would square to inf: the events CSV got inf
    # speeds, stderr numpy warnings (errors here), or at 1e305 an error
    # that named the output cadence
    code, out, err = run_cli(capsys, "sim", "relax", "--wall-model",
                             "langmuir_thermal", "--particles", "20",
                             "--transits", "1", "--temp", temp,
                             "--events-output", os.devnull)
    assert code == 2
    assert out == ""
    assert err.startswith("error: T_wall ") and err.count("\n") == 1


def _python(*argv, **kwargs) -> subprocess.Popen:
    """``python`` with ``argv`` in a fresh process that imports this
    kolgas, its stdout block-buffered as by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(kolgas.__file__).parents[1]))
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def _kolgas(*argv, **kwargs) -> subprocess.Popen:
    """``python -m kolgas.cli`` with ``argv`` in a fresh process."""
    return _python("-m", "kolgas.cli", *argv, **kwargs)


@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
def test_unwritable_stdout_exits_3(sink):
    # a reader that goes away early, and a device with no room: one error
    # line, no traceback, and no second complaint from the exit flush
    if sink == "closed-pipe":
        with _kolgas("sweep", "--var", "T", "--from", "2", "--to", "40",
                     "--points", "100000", stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE) as proc:
            proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        with open("/dev/full", "w") as full, \
                _kolgas("state", stdout=full, stderr=subprocess.PIPE) as proc:
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    assert code == 3
    assert err.startswith("error: stdout: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_child_is_reaped_after_a_closed_pipe(tmp_path):
    # the closed-pipe sweep above, in a process that may fork and writes
    # down the pid of each child it forks
    script = "\n".join([
        "import os, sys",
        "from kolgas import cli, sim",
        "sim.may_fork = lambda: True",
        "fork = os.fork",
        "def recording_fork():",
        "    pid = fork()",
        "    if pid:",
        "        with open(sys.argv[1], 'a') as fh:",
        "            fh.write(f'{pid}\\n')",
        "    return pid",
        "os.fork = recording_fork",
        "sys.exit(cli.main(sys.argv[2:]))",
    ])
    pid_file = tmp_path / "pids"
    with _python("-c", script, str(pid_file), "sweep", "--var", "T",
                 "--from", "2", "--to", "40", "--points", "100000",
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 3
    assert err.startswith("error: stdout: ") and err.count("\n") == 1
    pids = [int(line) for line in pid_file.read_text().split()]
    assert len(pids) == 1
    # reaped, so gone; a child left running, or a zombie no one reaped,
    # would still take the signal
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def test_sweep_child_is_reaped_after_a_real_interrupt(tmp_path):
    # ^C at a terminal sends SIGINT to the whole process group, the child
    # too: the child ignores it and the parent, interrupted while it
    # writes, kills and reaps the child on its way out.  The parent here
    # writes down the child's pid, and waits a moment before it kills the
    # child, so that a child that took the ^C would print its traceback
    script = "\n".join([
        "import os, sys, time",
        "from kolgas import cli, sim",
        "sim.may_fork = lambda: True",
        "forked = sim.forked",
        "def recording(*args):",
        "    child = forked(*args)",
        "    with open(sys.argv[1] + '.part', 'w') as fh:",
        "        fh.write(f'{child.pid}\\n')",
        "    os.replace(sys.argv[1] + '.part', sys.argv[1])",
        "    kill = child.kill",
        "    child.kill = lambda: time.sleep(0.5) or kill()",
        "    return child",
        "sim.forked = recording",
        "sys.exit(cli.main(sys.argv[2:]))",
    ])
    pid_file, out = tmp_path / "pid", tmp_path / "sweep.csv"
    with _python("-c", script, str(pid_file),
                 *_big_sweep(SWEEP_POINTS_CAP), "--output", str(out),
                 stderr=subprocess.PIPE, start_new_session=True) as proc:
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size and pid_file.exists()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == -signal.SIGINT, err
    assert "KeyboardInterrupt" in err and "Process-" not in err
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_non_sim_commands_do_not_load_scipy(tmp_path):
    # only sampling needs scipy.spatial, which costs start-up its import
    script = "\n".join([
        "import sys",
        "from kolgas.cli import main",
        "for argv in sys.argv[1:]:",
        "    assert main(argv.split()) == 0, argv",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "sys.exit(f'loaded: {loaded}' if loaded else 0)",
    ])
    lst = tmp_path / "rng.lst"
    done = subprocess.run(
        [sys.executable, "-c", script, "state",
         "sweep --var T --from 2 --to 40 --points 50",
         f"randomness generate --kind rng --n 10000 --output {lst}",
         f"randomness audit --input {lst}"],
        env=dict(os.environ,
                 PYTHONPATH=str(pathlib.Path(kolgas.__file__).parents[1])),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _must_not_run(*args, **kwargs):
    raise AssertionError("the simulation ran")


@pytest.mark.parametrize("argv", [
    # one file named twice; a CSV trace and the JSON report in one stream
    ("relax", "--trace-output", "t.csv", "--output", "t.csv"),
    ("relax", "--trace-output", "-"),
    ("relax", "--events-output", "-", "--output", "-"),
    ("relax", "--trace-output", "e.csv", "--events-output", "./e.csv"),
    ("relax", "--output", "r.json", "--trace-output", "-",
     "--events-output", "-"),
    ("joule", "--trace-prefix", "j", "--output", "j.before.csv"),
    ("joule", "--trace-prefix", "j", "--output", "./j.after.csv"),
])
def test_colliding_outputs_exit_2_before_running(tmp_path, capsys,
                                                 monkeypatch, argv):
    monkeypatch.setattr("kolgas.sim.simulate", _must_not_run)
    monkeypatch.setattr("kolgas.sim.run_joule_expansion", _must_not_run)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sim", argv[0], *_SMALL_SIM, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "both write to" in err
    assert list(tmp_path.iterdir()) == []


def test_trace_on_stdout_with_report_in_a_file(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "sim", "relax", *_SMALL_SIM,
                           "--trace-output", "-", "--output", str(report))
    assert code == 0
    assert out.splitlines()[1] == "t,D_hat,K_orient,K_nn,chi2_orient,chi2_pos"
    jsonschema.validate(json.loads(report.read_text()),
                        load_schema("relax.schema.json"))


def _synthetic_log(n):
    """A wall-event log of ``n`` synthetic events, cut into chunks that end
    inside and across the writer's blocks, at least one of them empty."""
    rng = np.random.default_rng(8)
    columns = (np.cumsum(rng.random(n)), rng.integers(0, 10**5, n),
               rng.random(n) * np.pi, rng.random(n) * 2.0 * np.pi,
               rng.random(n))
    half = _ROWS_PER_WRITE // 2
    cuts = [min(c, n) for c in (1, half, half, _ROWS_PER_WRITE - 1,
                                _ROWS_PER_WRITE + 1, 2 * _ROWS_PER_WRITE)]
    return list(zip(*(np.split(column, cuts) for column in columns)))


@pytest.mark.parametrize("n", [0, 1, _ROWS_PER_WRITE - 3, _ROWS_PER_WRITE - 2,
                               2 * _ROWS_PER_WRITE + 5])
def test_events_csv_rows_across_blocks(tmp_path, n):
    # the manifest and header lines share the first block with the rows
    log = _synthetic_log(n)
    assert any(chunk[0].size == 0 for chunk in log)
    path = tmp_path / "events.csv"
    _write_events({"command": "test"}, log, str(path))
    lines = path.read_text().splitlines()
    assert lines[1] == "t,particle_id,exit_theta,exit_phi,speed"
    assert lines[2:] == [
        f"{format(t, '.17g')},{pid},{','.join(format(x, '.17g') for x in r)}"
        for chunk in log for t, pid, *r in zip(*(c.tolist() for c in chunk))]


def test_events_csv_memory_stays_bounded(monkeypatch):
    # writing the events CSV holds no second copy of the run's log, nor a
    # whole chunk as Python objects: the traced peak of the write, which
    # starts once the run has returned, is below half the log's 40 bytes
    # per event (the largest chunk, from the first pass over every
    # particle, holds about a sixth of the events)
    simulate = kolgas.sim.simulate

    def simulate_then_trace(*args, **kwargs):
        run = simulate(*args, **kwargs)
        tracemalloc.start()
        return run

    monkeypatch.setattr("kolgas.sim.simulate", simulate_then_trace)
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            code = main(["sim", "relax", "--wall-model", "langmuir_thermal",
                         "--particles", "40000", "--transits", "4",
                         "--samples-per-transit", "1",
                         "--events-output", os.devnull])
        assert tracemalloc.is_tracing()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    n_events = json.loads(report.getvalue())["runs"][0]["n_wall_events"]
    assert peak < 40 * n_events / 2
