import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rte_lowrank import experiments, state, wlinalg
from rte_lowrank.cli import main as cli_main
from rte_lowrank.exceptions import ConfigError, SizeCapError
from rte_lowrank.experiments import (
    RunConfig,
    cmd_compare,
    cmd_run,
    cmd_singvals,
    cmd_sweep_dt,
    cmd_sweep_eps,
    fit_slope,
    load_config,
    n_steps,
)

TINY = {
    "domain": [0.0, 2.0],
    "n_x": 32,
    "n_mu": 8,
    "rank": 3,
    "eps": 0.5,
    "dt": 0.1,
    "t_final": 0.5,
    "integrator": "gap",
    "initial_condition": "parabolic",
    "seed": 0,
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def strip_wall_time(text):
    return "\n".join(l for l in text.splitlines() if "wall_time" not in l)


class TestRunConfig:
    def test_round_trip_through_parser(self, tmp_path):
        cfg = RunConfig.from_dict(TINY)
        path = write_cfg(tmp_path, cfg.to_dict())
        again = load_config(path)
        assert again == cfg

    def test_readme_table_lists_every_field(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text().split("### Config format", 1)[1]
        cells = [line.split("|")[1] for line in table.split("###", 1)[0]
                 .splitlines() if line.startswith("| `")]
        listed = [name for cell in cells
                  for name in re.findall(r"`(\w+)`", cell)]
        assert sorted(listed) == sorted(
            f.name for f in dataclasses.fields(RunConfig))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig.from_dict({**TINY, "mystery": 1})

    def test_validation_errors(self):
        cases = [
            {"n_x": 1},
            {"rank": 9},                      # > min(n_x, n_mu)
            {"eps": 0.0},
            {"eps": 100.0},
            {"t_final": -1.0},
            {"integrator": "euler"},
            {"initial_condition": "gaussian"},
            {"dt": 0.3},                      # does not divide t_final
        ]
        for patch in cases:
            cfg = RunConfig.from_dict({**TINY, **patch})
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_n_steps_divisor_check(self):
        assert n_steps(1.0, 0.1) == 10
        assert n_steps(1.0, 9.765625e-05) == 10240
        with pytest.raises(ConfigError):
            n_steps(1.0, 0.3)

    def test_overrides(self, tmp_path):
        path = write_cfg(tmp_path, TINY)
        cfg = load_config(path, ["eps=[1.0, 0.5]", "rank=4",
                                 "integrator=bug"])
        assert cfg.eps == [1.0, 0.5]
        assert cfg.rank == 4
        assert cfg.integrator == "bug"

    def test_bad_override(self, tmp_path):
        path = write_cfg(tmp_path, TINY)
        with pytest.raises(ConfigError):
            load_config(path, ["rank"])


class TestCmdRun:
    def test_smoke_reports_finite_errors(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "eps": 1.0})
        res = cmd_run(cfg, tmp_path)
        rep = res.error_report
        assert np.isfinite(rep["rel_l2_density"])
        assert np.isfinite(rep["rel_l2_full"])
        assert (tmp_path / "result.json").exists()

    def test_determinism_bit_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir(), out2.mkdir()
        cfg = RunConfig.from_dict(TINY)
        cmd_run(cfg, out1)
        cmd_run(RunConfig.from_dict(TINY), out2)
        t1 = strip_wall_time((out1 / "result.json").read_text())
        t2 = strip_wall_time((out2 / "result.json").read_text())
        assert t1 == t2

    def test_size_cap_rejection(self, tmp_path):
        cfg = RunConfig.from_dict(
            {**TINY, "integrator": "reference", "n_x": 4000, "n_mu": 100})
        with pytest.raises(SizeCapError):
            cmd_run(cfg, tmp_path)

    def test_cap_boundary(self, monkeypatch):
        # the cap counts the distinct nonzero D_x symbols of the reference's
        # live rows times max(n_mu, 32)^3.  Every Fourier row of parabolic
        # data is live, so 1000 x 100 (250 symbols, 2.5e8), 2000 x 100
        # (500, 5e8) and 4000 x 64 (1000, 2.6e8) sit at or below the cap,
        # 4000 x 100 (1e9) and 100 x 1000 (25, 2.5e10) above it, refused
        # before the kernel, stubbed here, runs once
        from rte_lowrank import model
        from rte_lowrank.experiments import build_setup, initial_matrix

        ran = []

        def kernel(a):
            ran.append(len(a))
            return np.eye(len(a))

        monkeypatch.setattr(model, "dense_expm", kernel)
        for n_x, n_mu, admitted in ((1000, 100, True), (2000, 100, True),
                                    (4000, 64, True), (4000, 100, False),
                                    (100, 1000, False)):
            cfg = RunConfig.from_dict({**TINY, "n_x": n_x, "n_mu": n_mu})
            grid, quad, diff = build_setup(cfg)
            m = model.make_model(grid, quad, diff, 0.1)
            f = initial_matrix(cfg, grid, quad)
            ran.clear()
            if admitted:
                model.full_flow(m, f, 0.1)
                assert ran == [n_mu] * (n_x // 4)
            else:
                with pytest.raises(SizeCapError):
                    model.full_flow(m, f, 0.1)
                assert ran == []

    def test_config_echo_round_trips(self, tmp_path):
        cfg = RunConfig.from_dict(TINY)
        cmd_run(cfg, tmp_path)
        echo = json.loads((tmp_path / "result.json").read_text())["config"]
        assert RunConfig.from_dict(echo) == RunConfig.from_dict(TINY)

    def test_compare_reference_writes_errors_csv(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "compare_reference": True})
        res = cmd_run(cfg, tmp_path)
        assert res.reference_kind == "dense"
        lines = (tmp_path / "errors.csv").read_text().splitlines()
        assert lines[0] == "t_final,rel_l2_density,rel_l2_full,mass"
        assert len(lines) == 2

    def test_sweep_value_rejected_by_run(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "eps": [1.0, 0.5]})
        with pytest.raises(ConfigError):
            cmd_run(cfg, tmp_path)

    def test_debug_trace_recorded(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "debug_trace": True})
        res = cmd_run(cfg, tmp_path)
        assert res.diagnostics
        assert res.diagnostics[0]["substep"] == "L"
        assert res.diagnostics[0]["route"] in ("taylor", "structured")


class TestSweepEps:
    def test_single_entry(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "eps": [1.0]})
        rows = cmd_sweep_eps(cfg, tmp_path)
        assert len(rows) == 1
        lines = (tmp_path / "sweep_eps.csv").read_text().splitlines()
        assert lines[0] == "eps,rel_l2_density,wall_time_seconds"
        assert len(lines) == 2

    def test_jobs_report_diffusion_limit(self, tmp_path, monkeypatch):
        kinds = []
        real = experiments.run_single

        def recorded(*args, **kwargs):
            result, f_final = real(*args, **kwargs)
            kinds.append(result.reference_kind)
            return result, f_final

        monkeypatch.setattr(experiments, "run_single", recorded)
        cmd_sweep_eps(RunConfig.from_dict({**TINY, "eps": [1.0, 0.5]}),
                      tmp_path)
        assert kinds == ["diffusion_limit", "diffusion_limit"]
        summary = json.loads((tmp_path / "result.json").read_text())
        assert summary["reference_kind"] == "diffusion_limit"

    def test_requires_descending(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "eps": [0.1, 1.0]})
        with pytest.raises(ConfigError):
            cmd_sweep_eps(cfg, tmp_path)

    def test_downscaled_monotone_decrease(self, tmp_path):
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 200, "n_mu": 32, "rank": 5, "t_final": 1.0,
            "eps": [1.0, 0.1, 0.01],
        })
        rows = cmd_sweep_eps(cfg, tmp_path)
        errs = [r[1] for r in rows]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]


class TestSweepDt:
    def test_degenerate_single_dt(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "dt": [0.1]})
        rows, slope, _ = cmd_sweep_dt(cfg, tmp_path)
        assert len(rows) == 1
        assert slope is None
        summary = json.loads((tmp_path / "sweep_dt_summary.json").read_text())
        assert summary["slope"] is None

    def test_reference_vs_itself_is_zero(self, tmp_path):
        cfg = RunConfig.from_dict(
            {**TINY, "integrator": "reference", "dt": [0.5]})
        rows, _, _ = cmd_sweep_dt(cfg, tmp_path)
        assert rows[0][1] <= 1e-12

    def test_csv_schema_and_precision(self, tmp_path):
        cfg = RunConfig.from_dict({**TINY, "dt": [0.1, 0.05]})
        cmd_sweep_dt(cfg, tmp_path)
        lines = (tmp_path / "sweep_dt.csv").read_text().splitlines()
        assert lines[0] == "dt,rel_l2_full,sigma_tail"
        float_re = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")
        for line in lines[1:]:
            for cell in line.split(","):
                assert float_re.match(cell), cell

    def test_fit_slope_filters_floor(self):
        dts = [0.1, 0.05, 0.025, 0.0125]
        errs = [1e-2, 5e-3, 2.5e-3, 1e-9]
        slope = fit_slope(dts, errs, floor=1e-6)
        assert slope == pytest.approx(1.0, abs=1e-8)
        assert fit_slope([0.1], [1e-3], floor=0.0) is None


class TestSingvals:
    def test_diffusive_solution_is_near_rank_one(self, tmp_path):
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 32, "n_mu": 8, "eps": 1e-6, "t_final": 1.0,
            "dt": 1.0, "initial_condition": "poly_fourier",
            "ic_coeffs": [1.0, 0.4],
        })
        sigma = cmd_singvals(cfg, tmp_path)
        assert sigma[1] / sigma[0] <= 1e-4

    def test_constant_data_is_exact_rank_one(self, tmp_path):
        cfg = RunConfig.from_dict({
            **TINY, "initial_condition": "poly_fourier", "ic_coeffs": [1.0],
            "t_final": 0.0,
        })
        sigma = cmd_singvals(cfg, tmp_path)
        assert sigma[0] > 0
        assert sigma[1] <= 1e-13 * sigma[0]

    def test_ladder_spectrum_at_time_zero(self, tmp_path):
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 200, "n_mu": 32,
            "initial_condition": "fourier_ladder", "t_final": 0.0,
        })
        sigma = cmd_singvals(cfg, tmp_path)
        assert np.all(np.diff(sigma[:11]) < 0)
        lines = (tmp_path / "singvals.csv").read_text().splitlines()
        assert lines[0] == "index,sigma"
        assert len(lines) == 1 + 32


class TestCompare:
    def test_kinetic_regime_all_schemes_close(self, tmp_path):
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 16, "n_mu": 8, "rank": 8, "eps": 1.0,
            "dt": 1e-3, "t_final": 1e-2,
            "initial_condition": "poly_fourier", "ic_coeffs": [1.0, 0.3],
        })
        rows = cmd_compare(cfg, tmp_path)
        by_scheme = {r[0]: r for r in rows}
        for scheme in ("gap", "psi", "bug"):
            assert by_scheme[scheme][3] == "ok"
            assert by_scheme[scheme][1] <= 1e-4
        assert by_scheme["reference"][1] == 0.0

    def test_diffusive_regime_psi_diverges(self, tmp_path):
        # well-prepared data (constant in the angular span) so the BUG
        # K-substep keeps the collision equilibrium representable
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 32, "n_mu": 8, "rank": 3, "eps": 1e-3,
            "dt": 0.1, "t_final": 0.2,
            "initial_condition": "poly_fourier",
            "ic_coeffs": [1.0, 0.4, 0.2],
        })
        rows = cmd_compare(cfg, tmp_path)
        by_scheme = {r[0]: r for r in rows}
        gap_err = by_scheme["gap"][1]
        assert np.isfinite(gap_err)
        assert np.isfinite(by_scheme["bug"][1])
        psi = by_scheme["psi"]
        assert psi[3] == "diverged" or psi[1] >= 10 * gap_err
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "scheme,rel_l2_full,rel_l2_density,status"

    @pytest.mark.parametrize("initial_condition", ["poly_fourier",
                                                   "parabolic"])
    def test_finite_blow_up_is_diverged(self, tmp_path, caplog,
                                        initial_condition):
        # PSI ends near 1e89 here (1.8e89 from poly_fourier, 1.1e89 from
        # parabolic) without overflowing
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 64, "n_mu": 16, "rank": 5, "eps": 0.03,
            "dt": 0.1, "t_final": 0.3,
            "initial_condition": initial_condition,
            "ic_coeffs": [1.0, -0.1, -0.01, 1e-3, 1e-4],
        })
        by_scheme = {r[0]: r for r in cmd_compare(cfg, tmp_path)}
        psi = by_scheme["psi"]
        assert psi[3] == "diverged"
        assert np.isnan(psi[1]) and np.isnan(psi[2])
        assert "psi diverged: rel_l2_full = " in caplog.text
        for scheme in ("gap", "bug"):
            assert by_scheme[scheme][3] == "ok"
            assert by_scheme[scheme][1] <= 1.0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[2] == "psi,nan,nan,diverged"

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_diffusive_regime_above_dense_fallback(self, tmp_path, eps):
        # 64 x 16 = 1024 dimensions: a Taylor reference here needs on the
        # order of t/eps^2 operator applies; the per-mode flow does not
        cfg = RunConfig.from_dict({
            **TINY, "n_x": 64, "n_mu": 16, "rank": 4, "eps": eps,
            "dt": 0.1, "t_final": 1.0, "initial_condition": "poly_fourier",
            "ic_coeffs": [1.0, -0.1, 0.01, -0.001],
        })
        by_scheme = {r[0]: r for r in cmd_compare(cfg, tmp_path)}
        for scheme in ("gap", "bug"):
            assert by_scheme[scheme][3] == "ok"
            assert by_scheme[scheme][1] <= 1e-5
        assert by_scheme["psi"][3] == "diverged"
        assert by_scheme["reference"][1] == 0.0


class TestCli:
    def test_run_success_exit_zero(self, tmp_path):
        path = write_cfg(tmp_path, TINY)
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0

    def test_config_error_exit_two(self, tmp_path):
        path = write_cfg(tmp_path, {**TINY, "integrator": "nope"})
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2

    # a config file that is not a JSON object must not escape as a
    # TypeError (exit 1) or be read as a sequence of field names
    @pytest.mark.parametrize("text,overrides", [
        ("5", []), ("null", []), ("[1]", ["--override", "n_x=4"]),
        ('"abc"', [])], ids=["number", "null", "list", "string"])
    def test_config_not_an_object_exit_two(self, tmp_path, capsys, text,
                                           overrides):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out"), *overrides]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    # each must be rejected before any work, not escape as a ValueError,
    # LinAlgError, ZeroDivisionError or TypeError (exit 1), nor run with a
    # string read as a flag (exit 0); the seed selects nothing, but is still
    # validated
    @pytest.mark.parametrize("command,override", [
        ("run", 'substep_solver="magic"'),
        ("run", 'substep_solver="exponential"'),
        ("run", "basis_pinning=true"),
        ("run", "output_dir=5"),
        ("run", "output_dir=[1]"),
        ("run", 'compare_reference="false"'),
        ("run", 'debug_trace="no"'),
        ("run", "expmv_tol=0.5"),
        ("run", "expmv_tol=0"),
        ("run", "dt=0"),
        ("sweep-dt", "dt=[0.1,0]"),
        ("run", 'eps="abc"'),
        ("run", "eps=1e-300"),
        ("run", "eps=1e-160"),
        ("run", 't_final="1"'),
        ("run", "t_final=NaN"),
        ("run", "t_final=Infinity"),
        ("run", "domain=[0,Infinity]"),
        ("run", "domain=[-Infinity,0]"),
        ("run", "ic_coeffs=[1,NaN]"),
        ("run", "ic_coeffs=[Infinity]"),
        ("run", "rank=2.5"),
        ("run", 'n_x="a"'),
        ("run", "domain=[0,1,2]"),
        ("run", 'ic_coeffs=[1,"a"]'),
        ("run", "seed=-1"),
        ("run", "seed=1.5"),
    ])
    def test_malformed_override_exit_two(self, tmp_path, command, override):
        path = write_cfg(tmp_path, {
            **TINY, "n_x": 64, "n_mu": 16, "eps": 1e-4, "t_final": 0.3,
            "rank": 5, "initial_condition": "poly_fourier",
            "ic_coeffs": [1.0, -0.1, -0.01, 1e-3, 1e-4]})
        assert cli_main([command, "--config", str(path),
                         "--out", str(tmp_path / "out"),
                         "--override", override]) == 2

    # each is a config error found before any output is written, and
    # before any reference, rank-r start or integration is computed
    @pytest.mark.parametrize("command,config,message", [
        ("run", None, "cannot read config"),
        ("run", '{"n_x": 32,', "cannot read config"),
        ("run", {**TINY, "domain": [1.0, 1.0]}, "domain: need b > a"),
        ("run", {**TINY, "domain": [2.0, 0.0]}, "domain: need b > a"),
        ("run", {**TINY, "initial_condition": "poly_fourier"},
         "poly_fourier needs a nonempty ic_coeffs list"),
        ("sweep-eps", {**TINY, "eps": []}, "eps list is empty"),
        ("sweep-dt", {**TINY, "dt": []}, "dt list is empty"),
        ("compare", {**TINY, "dt": [0.1, 0.05]}, "dt must be a number"),
        ("sweep-eps", {**TINY, "dt": [0.1, 0.05]}, "dt must be a number"),
        ("run", {**TINY, "output_dir": "elsewhere"},
         "unknown config fields: ['output_dir']"),
    ], ids=["missing", "not-json", "empty-domain", "reversed-domain",
            "no-ic-coeffs", "no-eps", "no-dt", "compare-dt-list",
            "sweep-eps-dt-list", "output-dir-field"])
    def test_config_error_before_output_exit_two(self, tmp_path, capsys,
                                                 monkeypatch, command,
                                                 config, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the config error")
        for name in ("integrate", "from_full", "diffusion_limit_density"):
            monkeypatch.setattr(experiments, name, no_work)
        path = tmp_path / "cfg.json"
        if isinstance(config, dict):
            path = write_cfg(tmp_path, config)
        elif config is not None:
            path.write_text(config)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_size_cap_exit_four(self, tmp_path):
        path = write_cfg(tmp_path, {**TINY, "integrator": "reference",
                                    "n_x": 4000, "n_mu": 100})
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 4

    def test_numerical_failure_exit_three(self, tmp_path):
        path = write_cfg(tmp_path, {**TINY, "integrator": "psi",
                                    "eps": 1e-3, "t_final": 0.1})
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 3

    def test_eps_just_above_floor_overflows_exit_three(self, tmp_path):
        # eps = 1.5e-154 passes the floor, so the run starts and its
        # 1/eps^2-stiff flow overflows as a numerical failure
        path = write_cfg(tmp_path, {
            **TINY, "n_x": 64, "n_mu": 16, "eps": 1.5e-154, "t_final": 0.3,
            "rank": 5, "initial_condition": "poly_fourier",
            "ic_coeffs": [1.0, -0.1, -0.01, 1e-3, 1e-4]})
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 3

    def test_psi_overflow_names_backward_substep(self, tmp_path, capsys):
        # PSI's factors grow past 1e154 before the backward substep
        # overflows; their column norms must not overflow first and report
        # the spatial factor as collapsed
        path = write_cfg(tmp_path, {
            **TINY, "integrator": "psi", "n_x": 64, "n_mu": 16, "rank": 5,
            "eps": 1e-2, "dt": 0.01, "t_final": 0.2,
            "initial_condition": "fourier_ladder"})
        assert cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "backward coefficient substep" in err
        assert "collapsed" not in err

    # relative errors divide by the reference's weighted and density norms;
    # a reference with either one zero is a config error found before any
    # job, not a ZeroDivisionError traceback (exit 1), and it leaves no
    # output directory; the first case is the CI's zero-norm config
    @pytest.mark.parametrize("command,coeffs,integrator,kind", [
        ("run", [0], "reference", "diffusion_limit"),
        ("compare", [0], "gap", "dense"),
        ("sweep-dt", [0], "gap", "dense"),
        ("run", [0, 1], "gap", "diffusion_limit"),
        ("sweep-eps", [0, 1], "gap", "diffusion_limit"),
    ])
    def test_zero_reference_exit_two(self, tmp_path, capsys, command, coeffs,
                                     integrator, kind):
        path = write_cfg(tmp_path, {
            **TINY, "n_x": 16, "n_mu": 4, "rank": 2, "eps": 1.0, "dt": 0.1,
            "t_final": 0.2, "initial_condition": "poly_fourier",
            "ic_coeffs": coeffs, "integrator": integrator})
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"config error: the {kind} reference has zero density norm"
                in err)
        assert "Traceback" not in err
        assert not out.exists()

    def test_zero_data_singvals_exit_zero(self, tmp_path):
        # singular values need no relative error
        path = write_cfg(tmp_path, {
            **TINY, "n_x": 16, "n_mu": 4, "rank": 2, "eps": 1.0, "dt": 0.1,
            "t_final": 0.2, "initial_condition": "poly_fourier",
            "ic_coeffs": [0]})
        assert cli_main(["singvals", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "singvals.csv").read_text().splitlines()
        assert len(rows) == 5
        assert all(float(row.split(",")[1]) == 0.0 for row in rows[1:])

    @pytest.mark.parametrize("flag", ["--out"])
    def test_unusable_output_dir_exit_two(self, monkeypatch, tmp_path,
                                          capsys, flag):
        # a directory below a regular file cannot be made; that is a
        # config error that names the path, not a traceback (exit 1), and
        # it is found before any job runs
        blocker = tmp_path / "file"
        blocker.write_text("")
        bad = str(blocker / "sub")
        path = write_cfg(tmp_path, TINY)
        jobs = []
        monkeypatch.setattr(experiments, "run_single",
                            lambda *args: jobs.append(args))
        assert cli_main(["run", "--config", str(path), flag, bad]) == 2
        err = capsys.readouterr().err
        assert bad in err
        assert "Traceback" not in err
        assert jobs == []

    def test_override_flag(self, tmp_path):
        path = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out),
                         "--override", "rank=2"]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["rank"] == 2

    def test_repeated_override_flags_all_apply(self, tmp_path):
        path = write_cfg(tmp_path, {**TINY, "eps": 1.0})
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out),
                         "--override", "eps=0.01", "--override",
                         "dt=0.05"]) == 0
        config = json.loads((out / "result.json").read_text())["config"]
        assert (config["eps"], config["dt"]) == (0.01, 0.05)


class TestSharedSetup:
    # each command builds its reference and its rank-r start once and
    # shares them among its jobs; the start takes one weighted SVD of f0
    @pytest.mark.parametrize("command,patch,n_reference,n_start", [
        (cmd_run, {"compare_reference": True}, 1, 1),
        (cmd_run, {}, 0, 1),
        (cmd_compare, {}, 1, 1),
        (cmd_sweep_dt, {"dt": [0.1, 0.05]}, 1, 1),
        (cmd_sweep_eps, {"eps": [1.0, 0.5]}, 0, 1),
        (cmd_singvals, {}, 1, 0),
    ])
    def test_reference_and_start_built_once(self, tmp_path, monkeypatch,
                                            command, patch, n_reference,
                                            n_start):
        calls = []
        real_integrate, real_from_full = (experiments.integrate,
                                          experiments.from_full)

        def integrate(model, f, scheme, *args, **kwargs):
            calls.append(scheme)
            return real_integrate(model, f, scheme, *args, **kwargs)

        def from_full(*args):
            calls.append("from_full")
            return real_from_full(*args)

        real_svd = wlinalg.weighted_truncated_svd

        def svd(*args):
            calls.append("svd")
            return real_svd(*args)

        monkeypatch.setattr(experiments, "integrate", integrate)
        monkeypatch.setattr(experiments, "from_full", from_full)
        # the weighted SVD, through every module that binds it
        for module in (experiments, state):
            if getattr(module, "weighted_truncated_svd", None) is real_svd:
                monkeypatch.setattr(module, "weighted_truncated_svd", svd)
        command(RunConfig.from_dict({**TINY, **patch}), tmp_path)
        assert calls.count("reference") == n_reference
        assert calls.count("from_full") == n_start
        assert calls.count("svd") == n_start
