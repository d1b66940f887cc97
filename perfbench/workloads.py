"""The benchmark's workloads: the ``kolgas.cli.main`` calls one op makes,
and the checks every op's artifacts must pass.

Inputs derive only from the workload seed: relax and joule member seeds
come from ``sim.member_seed(seed, op)``, the audit lists from
``randomness generate --seed``, and the sweep grids start a seed-drawn
0.1% above their nominal endpoint, so each seed gives fresh rows in the
same regime.  Every op rewrites the same artifact paths, because the
rerun-determinism check compares the bytes of op 0 written twice.

The "smoke" size runs the same calls at tiny sizes; the benchmark uses it
for its warm-up op and the harness test uses it throughout.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import referencing

from kolgas import cli, sim

SWEEP_COLUMNS = ("lambda_th_m", "slot_count", "slots_per_particle", "kappa",
                 "gamma", "free_energy_J", "entropy_J_per_K", "pressure_Pa",
                 "chemical_potential_J", "internal_energy_J",
                 "heat_capacity_v_J_per_K")
TRACE_COLUMNS = "t,D_hat,K_orient,K_nn,chi2_orient,chi2_pos"


class Schemas:
    """Validators for the JSON artifacts, from ``docs/schemas``."""

    def __init__(self, directory: Path) -> None:
        docs = {p.stem.removesuffix(".schema"): json.loads(p.read_text())
                for p in sorted(directory.glob("*.schema.json"))}
        registry = referencing.Registry().with_resources(
            (d["$id"], referencing.Resource.from_contents(d))
            for d in docs.values())
        self._validators = {name: jsonschema.Draft7Validator(
            d, registry=registry) for name, d in docs.items()}

    def problems(self, kind: str, payload) -> list[str]:
        return [f"{kind} schema: {e.message}"
                for e in self._validators[kind].iter_errors(payload)]

    def load_json(self, path: Path, kind: str, problems: list[str]) -> dict:
        """Parse and validate a JSON artifact; an unreadable one yields {}."""
        try:
            payload = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: {exc}")
            return {}
        problems += self.problems(kind, payload)
        return payload if isinstance(payload, dict) else {}

    def load_csv(self, path: Path, header: str,
                 problems: list[str]) -> tuple[dict, np.ndarray]:
        """Parse a manifest-stamped CSV artifact into (manifest, rows);
        every value must be finite."""
        prefix, width = "# manifest: ", header.count(",") + 1
        try:
            with open(path, encoding="ascii") as fh:
                first, second = fh.readline(), fh.readline().rstrip("\n")
                if not first.startswith(prefix):
                    raise ValueError("missing manifest line")
                manifest = json.loads(first[len(prefix):])
                if second != header:
                    raise ValueError(f"header is not {header!r}")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            if rows.size and rows.shape[1] != width:
                raise ValueError(f"rows are not {width} wide")
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: {exc}")
            return {}, np.empty((0, width))
        problems += self.problems("manifest", manifest)
        if not np.isfinite(rows).all():
            problems.append(f"{path.name}: non-finite values")
        return (manifest if isinstance(manifest, dict) else {},
                rows.reshape(-1, width))


def _run_cli(argv: list[str]) -> str:
    """Run one CLI call for input generation; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"kolgas {' '.join(argv)} exited {code}")
    return out.getvalue()


class Workload:
    """One workload at one size, writing into ``workdir``."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path,
                 schemas: Schemas) -> None:
        self.seed = seed
        self.size = self.sizes[size]
        self.dir = workdir
        self.schemas = schemas
        workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        """Generate the inputs every op reads."""

    def calls(self, op: int) -> list[tuple[str, list[str]]]:
        """(label, argv) of each CLI call op number ``op`` makes."""
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        """Files every op writes."""
        raise NotImplementedError

    def check(self, op: int) -> list[str]:
        """Problems in op ``op``'s artifacts; empty when all is well."""
        raise NotImplementedError

    def path(self, name: str) -> Path:
        return self.dir / name


SIM_ARGS = ["--box-side", "0.035", "--gas", "he3", "--temp", "10",
            "--transits", "8", "--samples-per-transit", "4"]


class Relax(Workload):
    """Criterion-10 beam relaxation, one member seed per op, three arms."""

    name = "relax"
    sizes = {"full": {"particles": 10_000}, "smoke": {"particles": 500}}
    arms = (("rough", "specular_random_sites"), ("smooth", "smooth_specular"),
            ("thermal", "langmuir_thermal"))

    def calls(self, op):
        seed = sim.member_seed(self.seed, op)
        return [(label, ["sim", "relax", "--init", "beam", "--wall-model",
                         model, "--particles", str(self.size["particles"]),
                         *SIM_ARGS, "--seed", str(seed),
                         "--output", str(self.path(f"{label}.json")),
                         "--trace-output", str(self.path(f"{label}.csv"))])
                for label, model in self.arms]

    def artifacts(self):
        return [self.path(f"{label}.{ext}")
                for label, _ in self.arms for ext in ("json", "csv")]

    def check(self, op):
        problems = []
        for label, _ in self.arms:
            payload = self.schemas.load_json(self.path(f"{label}.json"),
                                             "relax", problems)
            _, rows = self.schemas.load_csv(self.path(f"{label}.csv"),
                                            TRACE_COLUMNS, problems)
            if len(rows) != 8 * 4 + 1:
                problems.append(f"{label}: {len(rows)} trace rows, not 33")
            run = (payload.get("runs") or [{}])[0]
            if label == "smooth":
                if not run.get("no_plateau_reason"):
                    problems.append("smooth: relaxed, expected no plateau")
            else:
                t = run.get("t_relax_transits")
                if t is None or not 0.5 <= t <= 4.0:
                    problems.append(f"{label}: t_relax_transits {t}")
        return problems


class Joule(Workload):
    """Criterion-11 free expansion by 4 on rough walls, one member seed
    per op."""

    name = "joule"
    sizes = {"full": {"particles": 1000}, "smoke": {"particles": 100}}
    ratio = 4.0

    def calls(self, op):
        seed = sim.member_seed(self.seed, op)
        return [("joule", ["sim", "joule", "--wall-model",
                           "specular_random_sites", "--particles",
                           str(self.size["particles"]), *SIM_ARGS,
                           "--ratio", str(self.ratio), "--seed", str(seed),
                           "--output", str(self.path("joule.json"))])]

    def artifacts(self):
        return [self.path("joule.json")]

    def check(self, op):
        problems = []
        payload = self.schemas.load_json(self.path("joule.json"), "joule",
                                         problems)
        if payload.get("disorder_increased") is not True:
            problems.append("joule: disorder did not increase")
        ds = payload.get("delta_s_per_particle_kb")
        if not isinstance(ds, (int, float)) or \
                not abs(ds / math.log(self.ratio) - 1.0) <= 0.05:
            problems.append(f"joule: entropy step {ds} is not ln 4 within 5%")
        return problems


class Audit(Workload):
    """Audit of a k=20 RNG list and a smooth-box list, then prefix-trace
    gap labels of smaller lists of each kind; the same lists every op."""

    name = "audit"
    sizes = {"full": {"audit_n": 1_000_000, "audit_k": 20,
                      "gap_n": 100_000, "gap_k": 17},
             "smoke": {"audit_n": 10_000, "audit_k": 14,
                       "gap_n": 1000, "gap_k": 10}}
    # (artifact, subcommand, input list, expected label)
    steps = (("audit-rng", "audit", "rng-audit", "random-like"),
             ("audit-box", "audit", "box-audit", "structured"),
             ("gap-rng", "gap", "rng-gap", "random-like"),
             ("gap-box", "gap", "box-gap", "structured"))

    def prepare(self):
        for j, use in enumerate(("audit", "gap")):
            size = ["--n", str(self.size[f"{use}_n"]),
                    "--k", str(self.size[f"{use}_k"])]
            seed = str(sim.member_seed(self.seed, j))
            for name, kind in ((f"rng-{use}", ["rng", "--seed", seed]),
                               (f"box-{use}", ["smooth-box"])):
                receipt = _run_cli(["randomness", "generate", "--kind", *kind,
                                    *size, "--output",
                                    str(self.path(f"{name}.txt"))])
                problems = self.schemas.problems("generate",
                                                 json.loads(receipt))
                if problems:
                    raise RuntimeError(f"generate receipt: {problems}")

    def calls(self, op):
        return [(name, ["randomness", sub, "--input",
                        str(self.path(f"{src}.txt")),
                        "--output", str(self.path(f"{name}.json"))])
                for name, sub, src, _ in self.steps]

    def artifacts(self):
        return [self.path(f"{name}.json") for name, *_ in self.steps]

    def check(self, op):
        problems = []
        for name, sub, _, expected in self.steps:
            payload = self.schemas.load_json(self.path(f"{name}.json"), sub,
                                             problems)
            got = payload.get("gap_class" if sub == "audit" else "label")
            if got != expected:
                problems.append(f"{name}: label {got}, expected {expected}")
        return problems


class Sweep(Workload):
    """He-3 Fermi temperature sweep and He-4 Bose volume sweep."""

    name = "sweep"
    sizes = {"full": {"points": 10_000}, "smoke": {"points": 100}}

    def prepare(self):
        shift = [1.0 + 1e-3 * u
                 for u in np.random.default_rng(self.seed).random(2).tolist()]
        self.grids = (
            ("T", ["--gas", "he3", "--statistics", "fermi", "--var", "T",
                   "--from", repr(2.0 * shift[0]), "--to", "40"]),
            ("V", ["--gas", "he4", "--statistics", "bose", "--var", "V",
                   "--from", repr(1e-6 * shift[1]), "--to", "1e-2"]))

    def calls(self, op):
        return [(f"sweep-{var}", ["sweep", *args, "--points",
                                  str(self.size["points"]), "--log",
                                  "--output",
                                  str(self.path(f"sweep-{var}.csv"))])
                for var, args in self.grids]

    def artifacts(self):
        return [self.path(f"sweep-{var}.csv") for var, _ in self.grids]

    def check(self, op):
        problems = []
        for var, _ in self.grids:
            manifest, rows = self.schemas.load_csv(
                self.path(f"sweep-{var}.csv"),
                ",".join((var,) + SWEEP_COLUMNS), problems)
            if len(rows) != self.size["points"]:
                problems.append(f"sweep-{var}: {len(rows)} rows")
                continue
            col = {c: rows[:, i + 1] for i, c in enumerate(SWEEP_COLUMNS)}
            temp = rows[:, 0] if var == "T" else \
                manifest.get("parameters", {}).get("temp", math.nan)
            u, f = col["internal_energy_J"], col["free_energy_J"]
            ts = temp * col["entropy_J_per_K"]
            scale = np.maximum(np.maximum(abs(u), abs(f)), abs(ts))
            if not np.all(abs(u - (f + ts)) <= 1e-9 * scale):
                problems.append(f"sweep-{var}: U != F + T S on some row")
        return problems


WORKLOADS = {w.name: w for w in (Relax, Joule, Audit, Sweep)}
