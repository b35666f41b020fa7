import json
import math
import subprocess
import sys
import time
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np
import pytest

from clarklab import modelspace, rankn, scenarios
from clarklab.cli import main
from clarklab.errors import ConstructionError, ResidueError, ScenarioError
from clarklab.herglotz import blaschke_from_json_dict
from clarklab.measures import cauchy_transform_disk, measure_from_json_dict
from clarklab.rankn import (family_from_json_dict, family_model_space,
                            knu_alpha_beta, recursive_unitary,
                            spectral_measure_of_vector)
from clarklab.modelspace import build_model_space, t_alpha_matrix, v_alpha
from clarklab.rankone import (circle_measure_deviation, clark_measure,
                              inner_from_unitary, matrix_oracle_selfadjoint,
                              matrix_oracle_unitary, model_from_json_dict,
                              perturb_selfadjoint)
from clarklab.scenarios import (load_scenario, random_model, report_to_json,
                                run_scenario)

SMOKE = json.loads((resources.files("clarklab") / "scenarios"
                    / "scalar-smoke.json").read_text())


class TestRandomModel:
    def test_deterministic(self):
        assert random_model(7, 12, "line") == random_model(7, 12, "line")

    def test_single_site(self):
        model = random_model(3, 1, "circle")
        assert model.dimension == 1
        assert model.weights == (1.0,)

    def test_minimum_separation(self):
        for kind in ("line", "circle"):
            model = random_model(11, 64, kind)
            gaps = np.diff(model.sites)
            assert np.min(gaps) >= 1.0 / 256.0
        line = random_model(11, 64, "line")
        assert line.sites[0] >= -1.0
        assert line.sites[-1] <= 1.0

    def test_weights_normalized(self):
        model = random_model(5, 16, "line")
        assert math.fsum(model.weights) == pytest.approx(1.0, abs=1e-12)


class TestScenarioValidation:
    def test_missing_name(self):
        with pytest.raises(ScenarioError, match="name"):
            load_scenario({"seed": 1, "checks": [{"check": "simon_wolff"}]})

    def test_missing_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario({"name": "x", "checks": [{"check": "simon_wolff"}]})

    def test_unknown_check(self):
        with pytest.raises(ScenarioError, match=r"checks\[0\].check"):
            load_scenario({"name": "x", "seed": 1,
                           "checks": [{"check": "nope"}]})

    def test_bad_tolerance(self):
        with pytest.raises(ScenarioError, match="tolerances.algebraic"):
            load_scenario({"name": "x", "seed": 1, "tolerances":
                           {"algebraic": -1}, "checks": [{"check": "simon_wolff"}]})

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_non_finite_tolerance(self, text):
        # json.loads accepts these literals
        obj = json.loads('{"name": "x", "seed": 1, "tolerances": {"oracle": '
                         + text + '}, "checks": [{"check": "simon_wolff"}]}')
        with pytest.raises(ScenarioError, match="tolerances.oracle"):
            load_scenario(obj)

    @pytest.mark.parametrize("text", ["true", "false", "0"])
    def test_bool_or_zero_tolerance(self, text):
        # a JSON boolean is a Python bool, which is an int
        obj = json.loads('{"name": "x", "seed": 1, "tolerances": {"algebraic": '
                         + text + '}, "checks": [{"check": "simon_wolff"}]}')
        with pytest.raises(ScenarioError, match=r"tolerances\.algebraic"):
            load_scenario(obj)

    @pytest.mark.parametrize("text", ["true", "Infinity", "NaN", "0", "-1e-3"])
    @pytest.mark.parametrize("bundled, index", [
        ("disintegration", 0), ("disintegration", 1), ("rankn", 2)])
    def test_bad_check_tol_names_the_check(self, bundled, index, text):
        # the per-check "tol" of the three disintegration checks; the bad
        # entry sits at index 1, after a valid check
        checks = json.loads((resources.files("clarklab") / "scenarios"
                             / f"{bundled}.json").read_text())["checks"]
        obj = {"name": "x", "seed": 1,
               "checks": [SMOKE["checks"][2],
                          dict(checks[index], tol=json.loads(text))]}
        with pytest.raises(ScenarioError, match=r"checks\[1\]\.tol: must be "
                           "a positive finite number"):
            run_scenario(obj)

    def test_parse_error_positions(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  "seed": }')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    @pytest.mark.parametrize("fields, where", [
        ('"tolerances": 5, "checks": [{"check": "simon_wolff"}]', "tolerances"),
        ('"checks": 5', "checks"),
        ('"checks": [5]', "checks[0]"),
        ('"checks": [{}]', "checks[0].check"),
        ('"checks": [{"check": ["simon_wolff"]}]', "checks[0].check")])
    def test_malformed_top_level_exits_two(self, tmp_path, capsys, fields,
                                           where):
        text = '{"name": "x", "seed": 1, ' + fields + "}"
        _assert_exits_two(tmp_path, capsys, text, where)


class TestRunScenario:
    def test_smoke_all_pass(self):
        report = run_scenario(SMOKE)
        assert report.all_passed
        assert report.summary()["failed"] == 0

    def test_byte_identical_reports(self):
        a = report_to_json(run_scenario(SMOKE))
        b = report_to_json(run_scenario(SMOKE))
        assert a == b

    def test_workers_do_not_change_report(self):
        a = report_to_json(run_scenario(SMOKE))
        b = report_to_json(run_scenario(SMOKE, workers=4))
        assert a == b

    def test_timings_optional(self):
        report = run_scenario(SMOKE)
        with_t = report_to_json(report, timings=True)
        without = report_to_json(report, timings=False)
        assert '"wall_ms": null' in without
        assert '"wall_ms": null' not in with_t

    def test_each_record_carries_the_full_check_time(self, monkeypatch):
        def slow(seed, idx, spec, tol):
            time.sleep(0.05)
            return [scenarios.CheckRecord("slow", {"k": k}, 0.0, 0.0, 1.0, True)
                    for k in range(4)]

        monkeypatch.setitem(scenarios.CHECKS, "simon_wolff", slow)
        report = run_scenario({"name": "slow", "seed": 0,
                               "checks": [{"check": "simon_wolff"}]})
        assert len(report.records) == 4
        assert all(rec.wall_ms >= 50.0 for rec in report.records)

    def test_values_are_decimal_strings(self):
        payload = json.loads(report_to_json(run_scenario(SMOKE)))
        rec = payload["records"][0]
        assert isinstance(rec["observed"], str)
        float(rec["observed"])
        assert isinstance(rec["tolerance"], str)

    def test_numpy_scalars_are_plain_decimals(self):
        report = scenarios.RunReport("np", 0, [scenarios.CheckRecord(
            "c", {"z": np.complex128(0.5 - 2j)}, np.float64(0.1),
            np.complex128(0.25 + 1j), 1e-9, True)])
        rec = json.loads(report_to_json(report))["records"][0]
        assert rec["observed"] == "0.1"
        assert rec["expected"] == ["0.25", "1.0"]
        assert rec["parameters"] == {"z": ["0.5", "-2.0"]}


RANKN = load_scenario(json.loads((resources.files("clarklab") / "scenarios"
                                  / "rankn.json").read_text()))
TWO_PARAMETER_INDEX = 0


class TestTwoParameterOracleCheck:
    def _run(self):
        spec = RANKN.checks[TWO_PARAMETER_INDEX]
        assert spec["check"] == "two_parameter_oracle"
        return spec, scenarios.CHECKS["two_parameter_oracle"](
            RANKN.seed, TWO_PARAMETER_INDEX, spec, RANKN.tolerances)

    def test_stacked_grid_matches_per_point_route(self):
        # the handler's one stacked solve against one dense solve and one
        # cauchy_transform_disk per (alpha, beta, z), on the same draws
        spec, records = self._run()
        assert len(records) == len(spec["families"])
        for i, (fspec, rec) in enumerate(zip(spec["families"], records)):
            rng = scenarios._rng(RANKN.seed, TWO_PARAMETER_INDEX, i)
            family, _ = scenarios._resolve_family(
                fspec, rng, f"checks[{TWO_PARAMETER_INDEX}].families[{i}]")
            ms, f = family_model_space(family)
            alphas = scenarios.random_unimodular(rng, spec["alpha_count"])
            betas = scenarios.random_unimodular(rng, spec["beta_count"])
            nz = spec["z_count"]
            zs = 0.7 * np.sqrt(rng.uniform(0, 1, nz)) * scenarios.random_unimodular(
                rng, nz)
            dev = 0.0
            for alpha in alphas:
                for beta in betas:
                    u = recursive_unitary(family, [alpha, beta],
                                          check_cyclicity=False)
                    nu = spectral_measure_of_vector(u, family.vectors[1])
                    for z in zs:
                        dev = max(dev, abs(cauchy_transform_disk(nu, z)
                                           - knu_alpha_beta(ms, f, alpha,
                                                            beta, z)))
            assert rec.passed
            assert abs(rec.observed - dev) <= 1e-13

    def test_corrupted_stage_raises(self, monkeypatch):
        # the second stage of the first family's stack drifts off unitarity
        original = rankn.rank_one_unitary_update
        stages = []

        def drifting(matrix, vector, alpha):
            stages.append(np.shape(alpha))
            out = original(matrix, vector, alpha)
            return out * 1.01 if len(stages) == 2 else out

        monkeypatch.setattr(rankn, "rank_one_unitary_update", drifting)
        with pytest.raises(ConstructionError, match="stage 2 not unitary"):
            self._run()
        spec = RANKN.checks[TWO_PARAMETER_INDEX]
        grid = spec["alpha_count"] * spec["beta_count"]
        assert stages == [(grid,), (grid,)]


# The four grid checks one point at a time, as they ran before each item's
# grid became one stacked route call and one stacked oracle call: the
# reference their records must equal exactly.

def _secular_by_point(item, spec, tol):
    records = []
    lambdas = scenarios._reals(spec.get("lambdas", [0.5, -0.5]),
                               f"{item.check}.lambdas")
    model, label = scenarios._resolve_model(item.spec, item.rng, item.where)
    for lam in lambdas:
        got = perturb_selfadjoint(model, lam)
        want = matrix_oracle_selfadjoint(model, lam)
        pos_dev = float(np.max(np.abs(np.asarray(got.positions)
                                      - np.asarray(want.positions))))
        mass_dev = float(np.max(np.abs(np.asarray(got.masses)
                                       - np.asarray(want.masses))))
        params = {"model": label, "index": item.index, "lambda": lam}
        records += [
            scenarios._within("secular_oracle.positions", params, pos_dev,
                              1e-9 * (1.0 + abs(lam))),
            scenarios._within("secular_oracle.masses", params, mass_dev,
                              tol["oracle"])]
    return records


def _clark_by_point(item, spec, tol):
    n_alphas = spec.get("alpha_count", 8)
    model, label = scenarios._resolve_model(item.spec, item.rng, item.where)
    alphas = scenarios.random_unimodular(item.rng, n_alphas)
    theta = inner_from_unitary(model)
    atom_dev = mass_dev = 0.0
    for alpha in alphas:
        da, dm = circle_measure_deviation(clark_measure(theta, alpha),
                                          matrix_oracle_unitary(model, alpha))
        atom_dev, mass_dev = max(atom_dev, da), max(mass_dev, dm)
    params = {"model": label, "index": item.index, "alphas": len(alphas)}
    return [scenarios._within("clark_correspondence.atoms", params, atom_dev,
                              tol["algebraic"]),
            scenarios._within("clark_correspondence.masses", params, mass_dev,
                              tol["oracle"])]


def _modelspace_by_point(item, spec, tol):
    n_alphas = spec.get("alpha_count", 4)
    n_vectors = spec.get("vector_count", 20)
    rng, degree = item.rng, item.spec
    theta = scenarios.random_blaschke(rng, degree, zero_at_origin=True)
    ms = build_model_space(theta)
    alphas = scenarios.random_unimodular(rng, n_alphas)
    unit_dev = intertwine_dev = spectral_dev = 0.0
    for alpha in alphas:
        t = t_alpha_matrix(ms, alpha)
        mu = clark_measure(theta, alpha)
        unit_dev = max(unit_dev, float(np.linalg.norm(
            t.conj().T @ t - np.eye(degree), 2)))
        intertwine_dev = max(intertwine_dev,
                             modelspace._intertwine_residual(ms, mu, t))
        eig_angles = np.sort(np.angle(np.linalg.eigvals(t)) % (2 * math.pi))
        spectral_dev = max(spectral_dev, float(np.max(np.abs(np.angle(
            np.exp(1j * (eig_angles - np.asarray(mu.angles))))))))
    iso_dev = 0.0
    for _ in range(n_vectors):
        alpha = complex(scenarios.random_unimodular(rng, 1)[0])
        mu = clark_measure(theta, alpha)
        vals = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        f = v_alpha(ms, alpha, vals, mu=mu)
        l2 = math.sqrt(float(np.sum(np.asarray(mu.masses) * np.abs(vals) ** 2)))
        iso_dev = max(iso_dev, abs(f.norm() - l2))
    params = {"degree": degree, "alphas": n_alphas}
    return [scenarios._within("modelspace.unitarity", params, unit_dev, 1e-10),
            scenarios._within("modelspace.intertwine", params, intertwine_dev,
                              tol["algebraic"]),
            scenarios._within("modelspace.spectral", params, spectral_dev,
                              tol["algebraic"]),
            scenarios._within("modelspace.isometry", params, iso_dev,
                              tol["algebraic"])]


def _two_parameter_by_point(item, spec, tol):
    na, nb, nz = (spec.get(key, default) for key, default in
                  (("alpha_count", 8), ("beta_count", 8), ("z_count", 4)))
    rng = item.rng
    family, label = scenarios._resolve_family(item.spec, rng, item.where)
    ms, f = family_model_space(family)
    alphas = scenarios.random_unimodular(rng, na)
    betas = scenarios.random_unimodular(rng, nb)
    zs = 0.7 * np.sqrt(rng.uniform(0, 1, nz)) * scenarios.random_unimodular(
        rng, nz)
    points = np.stack(np.meshgrid(alphas, betas, indexing="ij"),
                      axis=-1).reshape(-1, 2)
    angles, masses = rankn._staged_spectra(family, points, family.vectors[1])
    direct = np.sum(masses[:, None, :] / (
        1.0 - np.exp(-1j * angles)[:, None, :] * zs[:, None]), axis=-1)
    closed = np.array([knu_alpha_beta(ms, f, alpha, beta, zs)
                       for alpha, beta in points])
    dev = float(np.max(np.abs(direct - closed)))
    params = {"family": label, "index": item.index, "grid": f"{na}x{nb}x{nz}"}
    return [scenarios._within("two_parameter_oracle", params, dev,
                              tol["oracle"])]


BY_POINT = {"secular_oracle": ("models", _secular_by_point),
            "clark_correspondence": ("models", _clark_by_point),
            "modelspace_suite": ("degrees", _modelspace_by_point),
            "two_parameter_oracle": ("families", _two_parameter_by_point)}

# Entries beyond the bundled ones: a zero coupling among the couplings,
# larger sizes, and degree 1 beside degree 16.
EXTRA_GRID_ENTRIES = [
    {"check": "secular_oracle", "lambdas": [0.0, 0.5],
     "models": [{"random": {"N": 3}}, {"random": {"N": 64}},
                {"kind": "line", "sites": [0.0], "weights": [1.0]}]},
    {"check": "clark_correspondence", "alpha_count": 5,
     "models": [{"random": {"N": 32, "kind": "circle"}},
                {"kind": "circle", "sites": [0.0], "weights": [1.0]}]},
    {"check": "modelspace_suite", "degrees": [1, 16], "alpha_count": 3,
     "vector_count": 4},
    {"check": "two_parameter_oracle", "alpha_count": 3, "beta_count": 5,
     "z_count": 2, "families": [{"random": {"N": 8, "n": 2}}]},
]


def _grid_entries():
    """(id, seed, check index, entry) of every bundled entry of the four
    checks, then of the extra ones."""
    for path in sorted((resources.files("clarklab") / "scenarios").iterdir()):
        if path.name.endswith(".json"):
            scen = load_scenario(json.loads(path.read_text()))
            for idx, entry in enumerate(scen.checks):
                if entry["check"] in BY_POINT:
                    yield f"{path.name}:{idx}", scen.seed, idx, entry
    for idx, entry in enumerate(EXTRA_GRID_ENTRIES):
        yield f"extra:{idx}", 24, idx, entry


GRID_ENTRIES = list(_grid_entries())


class TestStackedGridChecks:
    @pytest.mark.parametrize("seed, idx, entry",
                             [case[1:] for case in GRID_ENTRIES],
                             ids=[case[0] for case in GRID_ENTRIES])
    def test_records_equal_the_per_point_loop(self, seed, idx, entry):
        field, body = BY_POINT[entry["check"]]
        tol = dict(scenarios.DEFAULT_TOLERANCES)
        want = scenarios._each(field, body)(seed, idx, entry, tol)
        got = scenarios.CHECKS[entry["check"]](seed, idx, entry, tol)
        assert got == want
        assert all(rec.passed for rec in got)


class TestCli:
    def test_run_exit_zero(self, tmp_path):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(SMOKE))
        out = tmp_path / "report.json"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] == 0

    def test_malformed_scenario_exit_two(self, tmp_path, capsys):
        scen = tmp_path / "bad.json"
        scen.write_text('{"name": 3}')
        assert main(["run", str(scen)]) == 2
        assert "name" in capsys.readouterr().err

    def test_clark_csv(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(
            {"zeros": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, 0.0]}))
        assert main(["clark", "--theta", str(theta), "--alpha", "1j"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "angle,mass"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(math.pi / 4)
        assert rows[0][1] == pytest.approx(0.5)

    def test_clark_alpha_validation(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"zeros": [[0.0, 0.0]], "c": [1.0, 0.0]}))
        assert main(["clark", "--theta", str(theta), "--alpha", "2.0"]) == 2
        assert "unimodular" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["angle:abc", "nan", "angle:nan"])
    def test_clark_alpha_not_a_number(self, tmp_path, capsys, alpha):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"zeros": [[0.0, 0.0]], "c": [1.0, 0.0]}))
        assert main(["clark", "--theta", str(theta), "--alpha", alpha]) == 2
        assert capsys.readouterr().err.startswith("error: --alpha")

    def test_perturb_csv(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"kind": "line", "sites": [-1.0, 1.0], "weights": [0.5, 0.5]}))
        assert main(["perturb", "--model", str(model), "--lambda", "3.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position,mass"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        want = [(3.0 - math.sqrt(13.0)) / 2.0, (3.0 + math.sqrt(13.0)) / 2.0]
        assert [r[0] for r in rows] == pytest.approx(want)
        assert math.fsum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-10)

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(SMOKE))
        monkeypatch.setenv("CLARK_LAB_WORKERS", "3")
        assert main(["run", str(scen)]) == 0

    def test_workers_env_not_an_integer(self, tmp_path, monkeypatch, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(SMOKE))
        monkeypatch.setenv("CLARK_LAB_WORKERS", "two")
        assert main(["run", str(scen)]) == 2
        assert capsys.readouterr().err.startswith("error: CLARK_LAB_WORKERS")

    @pytest.mark.parametrize("flag, env, name", [
        ("0", None, "--workers"), ("-2", None, "--workers"),
        (None, "0", "CLARK_LAB_WORKERS"), (None, "-1", "CLARK_LAB_WORKERS")],
        ids=["flag-0", "flag-negative", "env-0", "env-negative"])
    def test_workers_below_one_rejected(self, tmp_path, monkeypatch, capsys,
                                        flag, env, name):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(SMOKE))
        if env is not None:
            monkeypatch.setenv("CLARK_LAB_WORKERS", env)
        argv = ["run", str(scen)] + (["--workers", flag] if flag else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name}: must be a positive integer\n"

    def test_failing_check_exit_one(self, tmp_path, capsys):
        # an impossible tolerance forces failures; exit status must be 1
        failing = dict(SMOKE, name="forced-failure",
                       tolerances={"algebraic": 1e-300})
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(failing))
        assert main(["run", str(scen)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_raising_check_becomes_failed_record(self, tmp_path, monkeypatch,
                                                 capsys):
        def broken(seed, idx, spec, tol):
            raise ResidueError("mass defect 1.0e-3")

        monkeypatch.setitem(scenarios.CHECKS, "simon_wolff", broken)
        reports = [report_to_json(run_scenario(SMOKE, workers=w))
                   for w in (1, 2)]
        assert reports[0] == reports[1]
        records = json.loads(reports[0])["records"]
        failed = [r for r in records if not r["pass"]]
        assert len(failed) == 1
        assert failed[0]["check"] == "simon_wolff"
        assert failed[0]["parameters"] == {"index": 2, "error": "ResidueError",
                                           "message": "mass defect 1.0e-3"}
        # the checks after the raising one still ran
        assert any(r["check"].startswith("modelspace.") for r in records)
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(SMOKE))
        assert main(["run", str(scen)]) == 1
        assert "FAIL simon_wolff" in capsys.readouterr().out

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "clarklab.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verify-all" in proc.stdout


class TestBundledScenarios:
    def test_all_names_unique_and_loadable(self):
        root = resources.files("clarklab") / "scenarios"
        names = []
        for path in sorted(p.name for p in root.iterdir()
                           if p.name.endswith(".json")):
            scen = load_scenario(json.loads((root / path).read_text()))
            names.append(scen.name)
        assert len(names) == len(set(names))
        assert "scalar-smoke" in names
        assert "clark-degree8" in names


def _bundled_check(scenario, index):
    return json.loads((resources.files("clarklab") / "scenarios"
                       / f"{scenario}.json").read_text())["checks"][index]


# (bundled scenario, check index, count key) for every count a check reads
COUNTS = [("clark-degree8", 0, "alpha_count"),
          ("clark-degree8", 1, "alpha_count"),
          ("clark-degree8", 1, "vector_count"),
          ("clark-degree8", 2, "vector_count"),
          ("clark-degree8", 2, "samples"),
          ("rankn", 0, "alpha_count"),
          ("rankn", 0, "beta_count"),
          ("rankn", 0, "z_count"),
          ("rankn", 1, "alpha_count"),
          ("rankn", 1, "z_count"),
          ("rankn", 3, "probe_count")]


class TestCountValidation:
    @pytest.mark.parametrize("text", ["true", "0", "-1", "2.5"])
    @pytest.mark.parametrize("bundled, index, key", COUNTS)
    def test_bad_count_names_the_check(self, bundled, index, key, text):
        # the bad entry sits at index 1, after a valid check
        obj = {"name": "x", "seed": 1,
               "checks": [SMOKE["checks"][2],
                          dict(_bundled_check(bundled, index),
                               **{key: json.loads(text)})]}
        with pytest.raises(ScenarioError, match=rf"checks\[1\]\.{key}: must "
                           "be a positive integer"):
            run_scenario(obj)

    @pytest.mark.parametrize("text", ["true", "0", "-1", "2.5"])
    def test_bad_xi_count_names_the_case(self, text):
        check = _bundled_check("rankn", 4)
        case = dict(check["cases"][0], xi_count=json.loads(text))
        obj = {"name": "x", "seed": 1,
               "checks": [SMOKE["checks"][2], dict(check, cases=[case])]}
        with pytest.raises(ScenarioError, match=r"checks\[1\]\.cases\[0\]"
                           r"\.xi_count: must be a positive integer"):
            run_scenario(obj)

    def test_count_of_two(self):
        obj = {"name": "x", "seed": 1,
               "checks": [dict(SMOKE["checks"][1], alpha_count=2)]}
        report = run_scenario(obj)
        assert report.all_passed
        assert [r.parameters["alphas"] for r in report.records] == [2] * 4

    def test_bool_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(dict(SMOKE, seed=True))

    def test_negative_count_exits_two(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(
            {"name": "x", "seed": 1,
             "checks": [dict(SMOKE["checks"][1], alpha_count=-1)]}))
        assert main(["run", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: checks[0].alpha_count: must be a positive "
                       "integer\n")



CIRCLE_SET = {"space": "circle", "pieces": [[0.0, 1.0]]}
LINE_POINT = {"space": "line", "atoms": [["0.0", "1.0"]]}
CURVE = {"components": [{"power": 1}, {"power": 1}]}

# (check entry with the number under test as "V", the field named, an
# out-of-range value as JSON text) for every number a check entry passes on
NUMBERS = [
    ({"check": "secular_oracle", "models": [{"random": {"N": "V"}}]},
     "checks[0].models[0].random.N", "0"),
    ({"check": "secular_oracle", "models": [{"random": {"N": 2}}],
      "lambdas": [0.5, "V"]}, "checks[0].lambdas[1]", "Infinity"),
    ({"check": "theorem4_axis", "families": [{"random": {"N": "V", "n": 2}}]},
     "checks[0].families[0].random.N", "-1"),
    ({"check": "theorem4_axis", "families": [{"random": {"N": 3, "n": "V"}}]},
     "checks[0].families[0].random.n", "0"),
    ({"check": "disintegration_circle", "thetas": [{"power": "V"}],
      "borel_sets": [CIRCLE_SET]}, "checks[0].thetas[0].power", "0"),
    ({"check": "disintegration_circle", "thetas": [{"random_degree": "V"}],
      "borel_sets": [CIRCLE_SET]}, "checks[0].thetas[0].random_degree", "2.7"),
    ({"check": "lemma7_suite",
      "thetas": [{"random_degree": 3, "max_radius": "V"}]},
     "checks[0].thetas[0].max_radius", "1.0"),
    ({"check": "modelspace_suite", "degrees": [1, "V"]},
     "checks[0].degrees[1]", "0"),
    ({"check": "simon_wolff",
      "cases": [{"measure": LINE_POINT, "probes": [0.0, "V"]}]},
     "checks[0].cases[0].probes[1]", "-Infinity"),
    ({"check": "theorem9_nullset",
      "cases": [{"family": {"random": {"N": 3}}, "curve": CURVE,
                 "null_angles": ["V"]}]},
     "checks[0].cases[0].null_angles[0]", "1e400"),
    ({"check": "theorem9_nullset",
      "cases": [{"family": {"random": {"N": 3}},
                 "curve": {"components": [{"power": 1}, {"power": "V"}]}}]},
     "checks[0].cases[0].curve.components[1].power", "-2"),
    ({"check": "positivity_bounds", "families": [{"random": {"N": 2}}],
      "max_z_radius": "V"}, "checks[0].max_z_radius", "3.0"),
    ({"check": "disintegration_circle", "thetas": [{"power": 1}],
      "borel_sets": [{"space": "circle", "pieces": [[0.0, "V"]]}]},
     "checks[0].borel_sets[0].pieces[0][1]", "Infinity"),
    ({"check": "secular_oracle",
      "models": [{"kind": "line", "sites": ["V"], "weights": [1.0]}]},
     "checks[0].models[0].sites[0]", "-Infinity"),
]


def _scenario_text(entry, text):
    """A one-check scenario as JSON text, "V" in ``entry`` replaced by the
    JSON value ``text``."""
    return json.dumps({"name": "x", "seed": 1,
                       "checks": [entry]}).replace('"V"', text)


class TestNumberValidation:
    @pytest.mark.parametrize("text", ['"x"', "true", "null", "NaN", None])
    @pytest.mark.parametrize("entry, where, out_of_range", NUMBERS)
    def test_bad_number_exits_two(self, tmp_path, capsys, entry, where,
                                  out_of_range, text):
        scen = tmp_path / "s.json"
        scen.write_text(_scenario_text(entry, text or out_of_range))
        assert main(["run", str(scen)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {where}: must be ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("entry, where, out_of_range", NUMBERS)
    def test_good_number_runs(self, entry, where, out_of_range):
        value = "0.5" if where.endswith("radius") else "2"
        report = run_scenario(json.loads(_scenario_text(entry, value)))
        assert report.records and report.all_passed

    def test_empty_lambdas_rejected(self):
        obj = {"name": "x", "seed": 1, "checks": [
            {"check": "secular_oracle", "models": [{"random": {"N": 2}}],
             "lambdas": []}]}
        with pytest.raises(ScenarioError, match=r"checks\[0\]\.lambdas: must "
                           "be a non-empty list"):
            run_scenario(obj)

    def test_zero_coupling_stays_valid(self):
        obj = {"name": "x", "seed": 1, "checks": [
            {"check": "secular_oracle", "models": [{"random": {"N": 3}}],
             "lambdas": [0, 0.0]}]}
        report = run_scenario(obj)
        assert report.all_passed and len(report.records) == 4


def _assert_exits_two(tmp_path, capsys, text, where):
    """``clark-lab run`` on the scenario ``text`` exits 2 with exactly one
    ``error:`` line, which names ``where``, and prints nothing on stdout."""
    scen = tmp_path / "s.json"
    scen.write_text(text)
    assert main(["run", str(scen)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


H = math.sqrt(0.5)
HALVES = {"kind": "circle", "sites": [0.0, math.pi], "weights": [0.5, 0.5]}

# (check entry with the number under test as "V", the field named, a valid
# value as JSON text) for the numbers whose valid value depends on the
# others: weights sum to 1, zeros lie in the disk, c and vectors are unit
PARTS = [
    ({"check": "secular_oracle",
      "models": [{"kind": "line", "sites": [0.0], "weights": ["V"]}]},
     "checks[0].models[0].weights[0]", "1.0"),
    ({"check": "disintegration_circle",
      "thetas": [{"zeros": [["V", 0.0]], "c": [1.0, 0.0]}],
      "borel_sets": [CIRCLE_SET]}, "checks[0].thetas[0].zeros[0][0]", "0.5"),
    ({"check": "disintegration_circle",
      "thetas": [{"zeros": [[0.5, "V"]], "c": [1.0, 0.0]}],
      "borel_sets": [CIRCLE_SET]}, "checks[0].thetas[0].zeros[0][1]", "0.0"),
    ({"check": "disintegration_circle",
      "thetas": [{"zeros": [[0.0, 0.0]], "c": ["V", 0]}],
      "borel_sets": [CIRCLE_SET]}, "checks[0].thetas[0].c[0]", "1.0"),
    ({"check": "disintegration_circle",
      "thetas": [{"zeros": [[0.0, 0.0]], "c": [0.0, "V"]}],
      "borel_sets": [CIRCLE_SET]}, "checks[0].thetas[0].c[1]", "-1.0"),
    ({"check": "theorem4_axis",
      "families": [{"base": HALVES,
                    "vectors": [[[H, 0.0], [H, 0.0]], [["V", 0.0], [-H, 0.0]]]}]},
     "checks[0].families[0].vectors[1][0][0]", repr(H)),
    ({"check": "theorem4_axis",
      "families": [{"base": HALVES,
                    "vectors": [[[H, 0.0], [H, 0.0]], [[H, 0.0], [-H, "V"]]]}]},
     "checks[0].families[0].vectors[1][1][1]", "0.0"),
]


class TestPartValidation:
    @pytest.mark.parametrize("text", ['"x"', "true", "null", "NaN", "Infinity"])
    @pytest.mark.parametrize("entry, where, good", PARTS)
    def test_bad_part_exits_two(self, tmp_path, capsys, entry, where, good,
                                text):
        _assert_exits_two(tmp_path, capsys, _scenario_text(entry, text), where)

    @pytest.mark.parametrize("entry, where, good", PARTS)
    def test_good_part_runs(self, entry, where, good):
        report = run_scenario(json.loads(_scenario_text(entry, good)))
        assert report.records and report.all_passed


# One valid entry per check, small enough to run in well under a second
VALID = {
    "secular_oracle": {"models": [{"random": {"N": 2}}]},
    "clark_correspondence": {"models": [{"random": {"N": 2, "kind": "circle"}}],
                             "alpha_count": 2},
    "disintegration_line": {"models": [{"random": {"N": 2}}],
                            "borel_sets": [{"space": "line", "pieces": [[0, 1]]}]},
    "disintegration_circle": {"thetas": [{"power": 1}], "borel_sets": [CIRCLE_SET]},
    "modelspace_suite": {"degrees": [1], "alpha_count": 2, "vector_count": 2},
    "lemma7_suite": {"thetas": [{"power": 1}], "vector_count": 1},
    "two_parameter_oracle": {"families": [{"random": {"N": 2}}], "alpha_count": 2,
                             "beta_count": 2, "z_count": 2},
    "positivity_bounds": {"families": [{"random": {"N": 2}}], "alpha_count": 2,
                          "z_count": 2, "curves": [CURVE]},
    "curve_disintegration": {"cases": [{"family": {"random": {"N": 2}},
                                        "curve": CURVE, "borel": CIRCLE_SET}]},
    "simon_wolff": {"cases": [{"measure": LINE_POINT, "probes": [0.0, 1.0]}]},
    "theorem4_axis": {"families": [{"random": {"N": 2}}], "probe_count": 2},
    "theorem9_nullset": {"cases": [{"family": {"random": {"N": 2}}, "curve": CURVE}]},
}

# (check, list field) for every list a check entry walks
LISTS = [("secular_oracle", "models"), ("clark_correspondence", "models"),
         ("disintegration_line", "models"), ("disintegration_line", "borel_sets"),
         ("disintegration_circle", "thetas"), ("disintegration_circle", "borel_sets"),
         ("modelspace_suite", "degrees"), ("lemma7_suite", "thetas"),
         ("two_parameter_oracle", "families"), ("positivity_bounds", "families"),
         ("curve_disintegration", "cases"), ("simon_wolff", "cases"),
         ("theorem4_axis", "families"), ("theorem9_nullset", "cases")]

# (check, required field of each item of its "cases")
CASE_FIELDS = [("curve_disintegration", "family"), ("curve_disintegration", "curve"),
               ("curve_disintegration", "borel"), ("theorem9_nullset", "family"),
               ("theorem9_nullset", "curve"), ("simon_wolff", "measure"),
               ("simon_wolff", "probes")]


def _malformed():
    """(check entry, the field its error must name) for each structural
    fault: three entries that ended in a Python traceback when the checks
    indexed their lists unread, then every list field missing, 8, empty or
    holding an item of the wrong type, every required field of a case
    missing, bad kinds, and Simon-Wolff measures with a bad space, a
    boolean atom or atoms that are not a list."""
    rows = [({"check": "secular_oracle"}, "checks[0].models"),
            ({"check": "modelspace_suite", "degrees": 8}, "checks[0].degrees"),
            ({"check": "secular_oracle", "models": [{"random": 5}]},
             "checks[0].models[0].random")]
    for check, key in LISTS:
        entry = dict(VALID[check], check=check)
        bad_item = "x" if key == "degrees" else 5
        rows += [({k: v for k, v in entry.items() if k != key}, f"checks[0].{key}"),
                 (dict(entry, **{key: 8}), f"checks[0].{key}"),
                 (dict(entry, **{key: []}), f"checks[0].{key}"),
                 (dict(entry, **{key: [bad_item]}), f"checks[0].{key}[0]")]
    for check, name in CASE_FIELDS:
        case = {k: v for k, v in VALID[check]["cases"][0].items() if k != name}
        rows.append((dict(VALID[check], check=check, cases=[case]),
                     f"checks[0].cases[0].{name}"))
    curves = dict(VALID["positivity_bounds"], check="positivity_bounds")
    rows += [(dict(curves, curves=8), "checks[0].curves"),
             (dict(curves, curves=[5]), "checks[0].curves[0]"),
             ({"check": "secular_oracle",
               "models": [{"random": {"N": 3, "kind": "foo"}}]},
              "checks[0].models[0].random.kind"),
             ({"check": "secular_oracle",
               "models": [{"kind": "foo", "sites": [0.0], "weights": [1.0]}]},
              "checks[0].models[0].kind"),
             ({"check": "disintegration_circle", "thetas": [{"power": 1}],
               "borel_sets": [{"space": "foo", "pieces": [[0.0, 1.0]]}]},
              "checks[0].borel_sets[0].space"),
             ({"check": "disintegration_circle", "thetas": [{"power": 1}],
               "borel_sets": [{"space": "circle", "pieces": [[0.0, 1.0, 2.0]]}]},
              "checks[0].borel_sets[0].pieces[0]")]
    for measure, where in (({"space": "plane", "atoms": []}, "space"),
                           ({"space": "line", "atoms": [[True, "1.0"]]},
                            "atoms[0][0]"),
                           ({"space": "line", "atoms": 5}, "atoms")):
        rows.append(({"check": "simon_wolff",
                      "cases": [{"measure": measure, "probes": [0.0]}]},
                     f"checks[0].cases[0].measure.{where}"))
    return rows


class TestStructureValidation:
    @pytest.mark.parametrize("check", sorted(VALID))
    def test_valid_entry_runs(self, check):
        # each malformed entry below differs from one of these in one place
        report = run_scenario({"name": "x", "seed": 1,
                               "checks": [dict(VALID[check], check=check)]})
        assert report.records and report.all_passed

    def test_empty_borel_set_runs(self):
        # "pieces": [] is a valid Borel set; its curve average is 0
        case = dict(VALID["curve_disintegration"]["cases"][0],
                    borel={"space": "circle", "pieces": []})
        report = run_scenario({"name": "x", "seed": 1, "checks": [
            {"check": "curve_disintegration", "cases": [case]}]})
        assert [rec.observed for rec in report.records] == [0.0]
        assert report.all_passed

    def test_every_check_is_covered(self):
        assert sorted(VALID) == sorted(scenarios.CHECKS)
        assert {check for check, _ in LISTS} == set(scenarios.CHECKS)

    @pytest.mark.parametrize("entry, where", _malformed())
    def test_malformed_entry_exits_two(self, tmp_path, capsys, entry, where):
        text = json.dumps({"name": "x", "seed": 1, "checks": [entry]})
        _assert_exits_two(tmp_path, capsys, text, where)


class TestFailedRecordInput:
    def test_names_the_item_that_raised(self):
        # the circle model checks; the line model has no inner function
        obj = {"name": "x", "seed": 1, "checks": [
            {"check": "clark_correspondence", "alpha_count": 2,
             "models": [{"random": {"N": 2, "kind": "circle"}},
                        {"random": {"N": 2, "kind": "line"}}]}]}
        reports = [report_to_json(run_scenario(obj, workers=w)) for w in (1, 2)]
        assert reports[0] == reports[1]
        records = json.loads(reports[0])["records"]
        assert len(records) == 1
        assert records[0]["pass"] is False
        assert records[0]["parameters"] == {
            "index": 0, "error": "DomainError",
            "message": "inner_from_unitary needs a circle model",
            "input": "checks[0].models[1]"}

    def test_circle_model_in_line_average(self):
        obj = {"name": "x", "seed": 1, "checks": [
            {"check": "disintegration_line", "tol": 1e-3,
             "models": [{"random": {"N": 3, "kind": "circle"}}],
             "borel_sets": [{"space": "line", "pieces": [[0.0, 1.0]]}]}]}
        records = json.loads(report_to_json(run_scenario(obj)))["records"]
        assert len(records) == 1
        assert records[0]["pass"] is False
        assert records[0]["parameters"] == {
            "index": 0, "error": "DomainError",
            "message": "line disintegration needs a line model",
            "input": "checks[0].models[0]"}


class Format(NamedTuple):
    """One input format, as the reader tests below use it."""
    reader: Callable  # its library reader
    obj: dict         # a valid object with "V" at one number
    good: str         # that number's valid value as JSON text
    where: str        # that number's path in the object
    entry: dict       # a check entry holding the object as "O"
    at: str           # the object's path in the entry

    def text(self, obj=None, value=None) -> str:
        """``obj`` (by default the valid object) as JSON text, with "V"
        replaced by the JSON text ``value`` (by default the valid one)."""
        return json.dumps(self.obj if obj is None else obj).replace(
            '"V"', self.good if value is None else value)


FORMATS = {
    "model": Format(model_from_json_dict,
                    {"kind": "line", "sites": ["V", 1.0], "weights": [0.5, 0.5]},
                    "-1.0", ".sites[0]",
                    {"check": "secular_oracle", "models": ["O"]}, "models[0]"),
    "theta": Format(blaschke_from_json_dict,
                    {"zeros": [[0.0, 0.0], [0.0, 0.0]], "c": ["V", 0.0]},
                    "1.0", ".c[0]",
                    {"check": "disintegration_circle", "thetas": ["O"],
                     "borel_sets": [CIRCLE_SET]}, "thetas[0]"),
    "family": Format(family_from_json_dict,
                     {"base": HALVES, "vectors": [[[H, 0.0], [H, 0.0]],
                                                  [["V", 0.0], [-H, 0.0]]]},
                     repr(H), ".vectors[1][0][0]",
                     {"check": "theorem4_axis", "families": ["O"],
                      "probe_count": 2}, "families[0]"),
    "measure": Format(measure_from_json_dict,
                      {"space": "line", "atoms": [["V", "1.0"]]},
                      '"0.0"', ".atoms[0][0]",
                      {"check": "simon_wolff",
                       "cases": [{"measure": "O", "probes": [0.0, 1.0]}]},
                      "cases[0].measure"),
}

# (format, the object's field that goes missing or becomes 5 where an
# object belongs, "" for the object itself)
MISSING = [("model", "weights"), ("theta", "c"), ("family", "vectors"),
           ("measure", "atoms")]
NOT_OBJECT = [("model", ""), ("theta", ""), ("family", "base"),
              ("measure", "")]


def _reader_faults():
    """(format, the object as JSON text, the path of its fault) for a bad
    number of every format as each of "x", true, null, NaN and Infinity,
    a missing required field and a non-object where an object belongs."""
    rows = [(name, fmt.text(value=text), fmt.where)
            for name, fmt in FORMATS.items()
            for text in ('"x"', "true", "null", "NaN", "Infinity")]
    for name, key in MISSING:
        obj = {k: v for k, v in FORMATS[name].obj.items() if k != key}
        rows.append((name, FORMATS[name].text(obj), f".{key}"))
    for name, key in NOT_OBJECT:
        obj = dict(FORMATS[name].obj, **{key: 5}) if key else 5
        rows.append((name, FORMATS[name].text(obj), f".{key}" if key else ""))
    return rows


def _in_scenario(name, obj_text):
    """A one-check scenario as JSON text holding the object ``obj_text``."""
    return json.dumps({"name": "x", "seed": 1, "checks": [
        FORMATS[name].entry]}).replace('"O"', obj_text)


def _cli(name, tmp_path, text):
    """``clark-lab clark --theta`` or ``perturb --model`` on a file holding
    ``text``: the exit status."""
    path = tmp_path / "input.json"
    path.write_text(text)
    return main({"model": ["perturb", "--model", str(path), "--lambda", "3.0"],
                 "theta": ["clark", "--theta", str(path), "--alpha", "1j"]}[name])


class TestReaders:
    @pytest.mark.parametrize("name, text, where", _reader_faults())
    def test_library_names_the_field(self, name, text, where):
        reader = FORMATS[name].reader
        with pytest.raises(ScenarioError) as info:
            reader(json.loads(text))
        assert str(info.value).startswith(f"{name}{where}: ")
        with pytest.raises(ScenarioError) as info:
            reader(json.loads(text), "input")
        assert str(info.value).startswith(f"input{where}: ")

    @pytest.mark.parametrize("name, text, where", [
        row for row in _reader_faults() if row[0] in ("model", "theta")])
    def test_cli_exits_two(self, tmp_path, capsys, name, text, where):
        assert _cli(name, tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --{name}{where}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("name, text, where", _reader_faults())
    def test_scenario_names_the_same_field(self, tmp_path, capsys, name, text,
                                           where):
        _assert_exits_two(tmp_path, capsys, _in_scenario(name, text),
                          f"checks[0].{FORMATS[name].at}{where}")

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_valid_object_runs(self, name):
        report = run_scenario(json.loads(_in_scenario(name, FORMATS[name].text())))
        assert report.records and report.all_passed

    @pytest.mark.parametrize("name, csv", [
        ("model", "position,mass\n-0.3027756377319947,0.08397485283107817\n"
                  "3.302775637731995,0.916025147168922\n"),
        ("theta", "angle,mass\n0.7853981633974483,0.5\n"
                  "3.9269908169872414,0.5000000000000002\n")])
    def test_valid_file_prints_the_same_csv(self, tmp_path, capsys, name, csv):
        assert _cli(name, tmp_path, FORMATS[name].text()) == 0
        assert capsys.readouterr().out == csv

    @pytest.mark.parametrize("reader, obj", [
        (model_from_json_dict,
         {"kind": "line", "sites": [0.0, 0.0], "weights": [0.5, 0.5]}),
        (model_from_json_dict,
         {"kind": "line", "sites": [0.0, 1.0], "weights": [0.5, 0.25]}),
        (model_from_json_dict,
         {"kind": "line", "sites": [0.0, 1.0, 2.0], "weights": [0.5, 0.5]}),
        (blaschke_from_json_dict, {"zeros": [[1.5, 0.0]], "c": [1.0, 0.0]}),
        (family_from_json_dict, {"base": HALVES, "vectors": [[[1.0, 0.0],
                                                               [1.0, 0.0]]]}),
        (measure_from_json_dict, {"space": "line", "atoms": [["0.0", "-1.0"]]})])
    def test_invariant_fault_stays_construction_error(self, reader, obj):
        # a well-formed object that breaks its type's invariant
        with pytest.raises(ConstructionError):
            reader(obj)
