"""Command-line behaviour: artifact schemas, manifests, exit codes, and
byte-level determinism of reruns."""
import io
import json
import os
import sys

import jsonschema
import pytest

from kolgas.cli import RELAX_SEEDS_CAP, SWEEP_POINTS_CAP, main

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


def test_audit_unknown_estimator_exits_2(tmp_path, capsys):
    f = tmp_path / "x.lst"
    run_cli(capsys, "randomness", "generate", "--kind", "rng", "--n", "100",
            "--k", "7", "--output", str(f))
    code, _, _ = run_cli(capsys, "randomness", "audit", "--input", str(f),
                         "--estimator", "psychic")
    assert code == 2


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
])
def test_non_finite_or_zero_input_exits_2(capsys, argv):
    if argv[0] == "sim":  # defaults first, so that argv's own values win
        argv = argv[:2] + ("--wall-model", "smooth_specular",
                           "--particles", "100") + argv[2:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
