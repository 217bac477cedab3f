import os

import numpy as np
import pytest

from regfree_mpc import config as cfg
from regfree_mpc.cli import main
from regfree_mpc.errors import ConfigError
from regfree_mpc.simulation import run


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and " " not in line.split("=")[0]:
            k, _, v = line.partition("=")
            out[k] = v
    return out


def test_preset_read_by_name_closes_its_file():
    import gc
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        cfg.read_config_file("academic_analyze")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_presets_all_parse():
    names = cfg.list_presets()
    assert "cement_mill_error_feedback" in names
    for name in names:
        text = cfg.read_config_file(name)
        spec = cfg.parse_config(text)
        assert spec is not None


def test_error_feedback_preset_settings():
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback"))
    assert spec.mpc.N == 6
    assert np.allclose(spec.mpc.Q, np.eye(2))
    assert np.allclose(spec.mpc.R, 1e-2 * np.eye(2))
    ob = spec.observer
    assert ob.kind == "ekf"
    assert np.allclose(ob.Sigma0, 100.0 * np.eye(5))
    assert np.allclose(ob.xhat0, [100.0, 50.0, 400.0, 100.0, 400.0])
    assert np.allclose(ob.Qproc, np.eye(5))
    assert np.allclose(ob.Rmeas, np.eye(2))
    assert spec.noise.distribution == "uniform"
    assert np.allclose(spec.noise.lo, [-1.0, -1.0])
    assert np.allclose(spec.noise.hi, [1.0, 1.0])
    assert np.allclose(spec.x0, [120.0, 55.0, 450.0])
    assert np.allclose(spec.w0, [110.0, 425.0])


def test_roundtrip_render_parse_fixed_point():
    for name in cfg.list_presets():
        text = cfg.read_config_file(name)
        spec = cfg.parse_config(text)
        if isinstance(spec, cfg.AnalysisSpec):
            continue
        rendered = cfg.render_scenario(spec)
        spec2 = cfg.parse_config(rendered)
        assert cfg.render_scenario(spec2) == rendered
        assert spec2.steps == spec.steps and spec2.seed == spec.seed
        assert np.array_equal(spec2.x0, spec.x0)
        assert np.array_equal(np.diag(spec2.mpc.Q), np.diag(spec.mpc.Q))


def test_unknown_key_reports_line_number():
    # bogus keys and the retired solver knobs alike
    for known, unknown in (("[model]\nname = academic", "bogus = 3"),
                           ("[mpc]\nvariant = output_only", "armijo_shrink = 0.5"),
                           ("[mpc]\nvariant = output_only", "warm_start = false")):
        with pytest.raises(ConfigError) as err:
            cfg.parse_sections(f"{known}\n{unknown}\n")
        assert "line 3" in str(err.value)
        assert repr(unknown.split(" = ")[0]) in str(err.value)


def test_unknown_section_and_syntax_errors():
    with pytest.raises(ConfigError):
        cfg.parse_sections("[weird]\n")
    with pytest.raises(ConfigError):
        cfg.parse_sections("name = academic\n")
    with pytest.raises(ConfigError):
        cfg.parse_sections("[model]\nname academic\n")


def test_bad_horizon_rejected():
    text = ("[model]\nname = academic\n[mpc]\nvariant = output_only\n"
            "N = 0\nQ = 1\nR = 0\n[sim]\nsteps = 3\nx0 = 1\n")
    with pytest.raises(ConfigError):
        cfg.parse_config(text)


def test_missing_required_key():
    text = "[model]\nname = academic\n[mpc]\nvariant = output_only\nQ = 1\nR = 0\n[sim]\nsteps = 3\nx0 = 1\n"
    with pytest.raises(ConfigError) as err:
        cfg.parse_config(text)
    assert "N" in str(err.value)


def test_cli_analyze_golden_values(capsys):
    rc = main(["analyze", "--config", "academic_analyze"])
    assert rc == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["epsilon_o"]) == pytest.approx(0.3343, abs=1e-3)
    assert 9.8 <= float(kv["N_1"]) <= 10.1
    assert kv["pbh_detectable"] == "true"
    assert kv["nonresonance_pass"] == "true"
    assert kv["augmented_detectable"] == "true"
    assert kv["minimum_phase"] == "false"
    assert kv["relative_degree"] == "-1"
    assert int(kv["nu"]) == 2
    assert float(kv["c_o"]) == pytest.approx(32.8159, rel=1e-4)


def test_cli_analyze_output_stable(capsys, tmp_path):
    out1 = tmp_path / "a1.txt"
    out2 = tmp_path / "a2.txt"
    assert main(["analyze", "--config", "academic_analyze", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--config", "academic_analyze", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()


def test_cli_simulate_deterministic(tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    assert main(["simulate", "--config", "academic_incremental", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", "academic_incremental", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_and_env(tmp_path, capsys, monkeypatch):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    out3 = tmp_path / "s3.csv"
    assert main(["simulate", "--config", "cement_mill_error_feedback",
                 "--seed", "7", "--out", str(out1)]) == 0
    monkeypatch.setenv("REGFREE_MPC_SEED", "7")
    assert main(["simulate", "--config", "cement_mill_error_feedback",
                 "--out", str(out2)]) == 0
    monkeypatch.delenv("REGFREE_MPC_SEED")
    assert main(["simulate", "--config", "cement_mill_error_feedback",
                 "--seed", "8", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_cli_bad_path_exit_code(capsys):
    assert main(["analyze", "--config", "/does/not/exist.cfg"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_wrong_spec_kind(capsys):
    assert main(["analyze", "--config", "academic_incremental"]) == 1
    assert main(["simulate", "--config", "academic_analyze"]) == 1


def test_cli_solve_reports_solution(capsys):
    rc = main(["solve", "--config", "cement_mill_nominal"])
    assert rc == 0
    kv = parse_kv(capsys.readouterr().out)
    assert kv["converged"] == "true"
    assert float(kv["value"]) >= 0.0
    u0 = [float(tok) for tok in kv["u_0"].split()]
    assert 80.0 <= u0[0] <= 150.0 and 165.0 <= u0[1] <= 180.0


def test_cli_solve_seeds_memory_like_the_controller(tmp_path, capsys):
    """Without u_init, `solve` and the first closed-loop step solve the same OCP."""
    text = "".join(line for line in cfg.read_config_file("cement_mill_nominal").splitlines(True)
                   if not line.startswith("u_init"))
    text = text.replace("steps = 300", "steps = 1")
    path = tmp_path / "no_u_init.cfg"
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 0
    value = float(parse_kv(capsys.readouterr().out)["value"])
    assert value == pytest.approx(run(cfg.parse_config(text)).value[0], rel=1e-11)


def test_cli_seed_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["simulate", "--config", "academic_incremental",
               "--seed", "0:3", "--out", str(out), "--jobs", "1"])
    assert rc == 0
    for s in range(3):
        assert (tmp_path / f"sweep_seed{s}.csv").exists()


def test_atomic_write_leaves_no_temp_files(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", "academic_output_only", "--out", str(out)]) == 0
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith("x.csv.tmp")]
    assert leftovers == []


def test_resonant_linear_model_has_no_regulator(tmp_path):
    """Resonance (S = 1.5 is a transmission zero) leaves the scenario without a regulator."""
    from regfree_mpc.models import LinearSystem, dump_lti
    sys_ = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[-1.0]],
                        P_x=[[1.0]], P_y=[[1.0]], S=[[1.5]])
    mfile = tmp_path / "plant.txt"
    dump_lti(sys_, mfile)
    spec = cfg.parse_config(f"[model]\nname = lti:{mfile}\n"
                            "[mpc]\nvariant = output_only\nN = 4\nQ = 1\nR = 0\n"
                            "[sim]\nsteps = 3\nx0 = 0\nw0 = 1\n")
    assert spec.regulator is None


def test_cli_lti_model_file_route(tmp_path, capsys):
    from regfree_mpc.models import LinearSystem, dump_lti
    sys_ = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                        P_x=[[0.0]], P_y=[[1.0]], S=[[1.0]])
    mfile = tmp_path / "plant.txt"
    dump_lti(sys_, mfile)
    cfg_text = (f"[model]\nname = lti:{mfile}\n"
                "[mpc]\nvariant = incremental_input\nN = 8\nQ = 1\nR = 0.1\nT = 1\n"
                "[sim]\nsteps = 40\nx0 = 0\nw0 = 2\nseed = 0\nu_init = 0\n")
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(cfg_text)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    cols = rows[0].split(",")
    last = rows[-1].split(",")
    # constant-reference tracking: output converges toward zero
    assert abs(float(last[cols.index("y0")])) < 1e-6
