import argparse
import dataclasses
import os
import shlex

import numpy as np
import pytest

from regfree_mpc import config as cfg
from regfree_mpc.cli import build_parser, main
from regfree_mpc.errors import ConfigError, NumericalError
from regfree_mpc.estimation import ObserverConfig
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
    names = [f[:-len(".cfg")] for f in os.listdir(cfg.PRESET_DIR) if f.endswith(".cfg")]
    assert "cement_mill_error_feedback" in names
    for name in names:
        text = cfg.read_config_file(name)
        spec = cfg.parse_config(text)
        assert spec is not None


def test_readme_config_example_parses():
    """The README's "Config files" block, inline comments included, is a valid config."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("Config files are sectioned", 1)[1]
    block = section.split("```", 2)[1]
    spec = cfg.parse_config(block)
    assert spec.mpc.variant == "incremental_input"
    assert np.array_equal(np.diag(spec.mpc.Q), [1.0, 1.0])
    assert spec.observer is not None
    assert spec.observer.kind == "ekf"


def test_readme_cli_commands_parse():
    """Every command of the README's "CLI" block parses, so no documented flag is refused."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("## CLI", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("regfree-mpc ")]
    assert {argv[1] for argv in commands} == {"analyze", "solve", "simulate"}
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_only_simulate_takes_seed_jobs_verbose():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
             for name, sp in sub.choices.items()}
    assert flags == {"analyze": {"--config", "--out"},
                     "solve": {"--config", "--out"},
                     "simulate": {"--config", "--out", "--seed", "--jobs", "--verbose"}}


def test_error_feedback_preset_settings():
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback"))
    assert spec.mpc.N == 6
    assert np.allclose(spec.mpc.Q, np.eye(2))
    assert np.allclose(spec.mpc.R, 1e-2 * np.eye(2))
    ob = spec.observer
    assert ob.kind == "ekf"
    assert np.allclose(ob.xhat0, [100.0, 50.0, 400.0, 100.0, 400.0])
    assert np.allclose(ob.noise_lo, [-1.0, -1.0])
    assert np.allclose(ob.noise_hi, [1.0, 1.0])
    assert np.allclose(spec.x0, [120.0, 55.0, 450.0])
    assert np.allclose(spec.w0, [110.0, 425.0])


def test_unknown_key_reports_line_number():
    # bogus keys and the retired solver knobs alike
    for known, unknown in (("[model]\nname = academic", "bogus = 3"),
                           ("[mpc]\nvariant = output_only", "armijo_shrink = 0.5"),
                           ("[mpc]\nvariant = output_only", "warm_start = false"),
                           ("[observer]\nkind = ekf", "sigma0 = 100"),
                           ("[observer]\nkind = ekf", "process_noise = 1"),
                           ("[observer]\nkind = ekf", "measurement_noise = 1")):
        with pytest.raises(ConfigError) as err:
            cfg.parse_sections(f"{known}\n{unknown}\n")
        assert "line 3" in str(err.value)
        assert repr(unknown.split(" = ")[0]) in str(err.value)


@pytest.mark.parametrize("delta", (-1, 1))
@pytest.mark.parametrize("key, preset", [
    *(pytest.param(key, "cement_mill_error_feedback", id=key)
      for key in ("x0", "w0", "u_init", "xhat0", "L", "Q", "R", "noise_lo", "noise_hi")),
    *(pytest.param(key, "academic_analyze", id=f"analyze_{key}") for key in ("Q", "R")),
    pytest.param("d", "academic_incremental", id="unread_d"),
    pytest.param("T", "academic_output_only", id="unread_T")])
def test_vector_of_wrong_length_reports_key_and_line(key, preset, delta):
    """A vector one entry short or long is refused, not broadcast or left to crash in numpy;
    so is a d or T that the preset's variant does not read."""
    lines = cfg.read_config_file(preset).splitlines()
    if key == "L":      # the preset's EKF takes no gain; lengths are checked before kinds
        lines.insert(lines.index("kind = ekf") + 1, "L = " + " ".join(["0.5"] * 10))
    if key in ("d", "T"):
        lines.insert(lines.index("[sim]") - 1, f"{key} = {2 + delta}")
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
    if key not in ("d", "T"):
        vals = lines[i].partition(" = ")[2].split()
        lines[i] = f"{key} = " + " ".join(vals[:-1] if delta < 0 else vals + vals[:1])
    with pytest.raises(ConfigError) as err:
        cfg.parse_config("\n".join(lines))
    assert f"line {i + 1}:" in str(err.value) and repr(key) in str(err.value)


@pytest.mark.parametrize("old, new, key, message", [
    pytest.param("noise_hi = 1.0 1.0", "", "noise_lo", "needs both bounds", id="noise_lo_alone"),
    pytest.param("noise_lo = -1.0 -1.0", "", "noise_hi", "needs both bounds", id="noise_hi_alone"),
    pytest.param("noise_lo = -1.0 -1.0", "noise_lo = 2.0 -1.0", "noise_hi", "lo <= hi",
                 id="noise_lo_above_hi"),
    pytest.param("gradient_tolerance = 1e-06", "gradient_tolerance = 0", "gradient_tolerance",
                 "must be positive", id="gradient_tolerance"),
    pytest.param("kind = ekf", "kind = ekf\nL = " + " ".join(["0.5"] * 10), "L",
                 "'L' is read only by the luenberger observer", id="L_under_ekf"),
    pytest.param("Q = 1.0 1.0", "Q = -1.0 1.0", "Q", "positive semidefinite", id="Q_not_psd"),
    pytest.param("R = 0.01 0.01", "R = -0.01 0.01", "R", "positive semidefinite", id="R_not_psd"),
    pytest.param("N = 6", "N = 0", "N", "N must be >= 1", id="N_zero"),
    pytest.param("T = 1", "T = 0", "T", "needs T >= 1", id="T_zero"),
    pytest.param("steps = 300", "steps = 0", "steps", "length must be >= 1", id="steps_zero"),
    pytest.param("seed = 0", "seed = -1", "seed", "seed must be nonnegative", id="seed_negative"),
    pytest.param("kind = ekf", "kind = foo", "kind", "unknown observer kind", id="kind_foo"),
    pytest.param("kind = ekf", "kind = luenberger", "kind", "needs a gain L",
                 id="luenberger_without_L"),
    pytest.param("variant = incremental_input", "variant = foo", "variant", "unknown variant",
                 id="variant_foo_next_to_T"),
    pytest.param("R = 0.01 0.01", "R = inf 0.01", "R", "'inf 0.01' is not finite", id="R_inf"),
    pytest.param("gradient_tolerance = 1e-06", "gradient_tolerance = nan", "gradient_tolerance",
                 "'nan' is not finite", id="gradient_tolerance_nan"),
    pytest.param("noise_lo = -1.0 -1.0", "noise_lo = nan -1.0", "noise_lo",
                 "'nan -1.0' is not finite", id="noise_lo_nan"),
    pytest.param("x0 = 120.0 55.0 450.0", "x0 = 120.0 -inf 450.0", "x0", "is not finite",
                 id="x0_inf")])
def test_refused_value_is_a_config_error_at_its_line(old, new, key, message, tmp_path, capsys):
    """simulate reports a value the library refuses as a config error at its key's line."""
    lines = cfg.read_config_file("cement_mill_error_feedback").splitlines()
    lines[lines.index(old)] = new
    lines = "\n".join(lines).splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
    cfg_file = tmp_path / "refused.cfg"
    cfg_file.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {i + 1}: ") and message in err, err


def test_library_errors_exit_2_named_by_kind(tmp_path, capsys, monkeypatch):
    """Only a NumericalError is a "numerical failure"; other library errors name their kind."""
    text = cfg.read_config_file("academic_analyze").replace("T = 1", "T = 2")
    cfg_file = tmp_path / "analyze.cfg"
    cfg_file.write_text(text)
    assert main(["analyze", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("DomainError: no stage-cost margin")
    # a mill reference with w1 = 0 has no steady state (u2 would be inf): refused, not traced
    cfg_file.write_text(cfg.read_config_file("cement_mill_nominal").replace(
        "w0 = 110.0 425.0", "w0 = 0.0 425.0"))
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("DomainError: reference")

    def fail(*args, **kwargs):
        raise NumericalError("singular")

    monkeypatch.setattr("regfree_mpc.cli.analyze_linear", fail)
    assert main(["analyze", "--config", "academic_analyze"]) == 2
    assert capsys.readouterr().err == "numerical failure: singular\n"


def test_readme_names_every_config_key():
    """The README's "Config files" section names every section and key the parser accepts."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("## Config files", 1)[1].split("\n## ", 1)[0]
    missing = [f"[{name}] {key}" for name, keys in cfg._SCHEMA.items() for key in keys
               if f"`{key}`" not in section or f"[{name}]" not in section]
    assert not missing


def test_observer_config_is_the_observer_section():
    """One library type holds every [observer] key, the output noise bounds included."""
    assert [f.name for f in dataclasses.fields(ObserverConfig)] == list(cfg._SCHEMA["observer"])


def test_unknown_section_and_syntax_errors():
    for text, message in (("[weird]\n", "line 1: unknown section [weird]"),
                          ("name = academic\n", "line 1: key outside any section"),
                          ("[model]\nname academic\n", "line 2: expected key = value"),
                          ("[model]\nname = academic\nname = academic\n",
                           "line 3: duplicate key 'name'"),
                          ("[mpc]\nN = six\n", "line 2: cannot parse 'six' as int"),
                          ("[mpc]\nQ = 1 one\n", "line 2: cannot parse '1 one' as vec")):
        with pytest.raises(ConfigError) as err:
            cfg.parse_sections(text)
        assert str(err.value).startswith(message)
    with pytest.raises(ConfigError) as err:
        cfg.parse_config("[model]\nname = academic\n")
    assert str(err.value) == "config needs a [sim] or an [analyze] section"
    for extra in ("[sim]\nsteps = 3\n", "[observer]\nkind = ekf\n"):    # a command would ignore one
        with pytest.raises(ConfigError) as err:
            cfg.parse_config(cfg.read_config_file("academic_analyze") + extra)
        assert str(err.value) == "[analyze] excludes [sim] and [observer]"


def test_schema_keys_are_unique_across_sections():
    """parse_config finds the line of a refused value by its key alone."""
    keys = [key for keys in cfg._SCHEMA.values() for key in keys]
    assert len(keys) == len(set(keys))


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
    # without --out the same trace goes to stdout; --verbose adds the metrics line on stderr
    capsys.readouterr()
    assert main(["simulate", "--config", "academic_incremental", "--verbose"]) == 0
    out = capsys.readouterr()
    assert out.out == out1.read_text()
    assert out.err.startswith("seed=0 sup|y|=") and "violation=0" in out.err
    assert out.err.count("\n") == 1
    assert main(["simulate", "--config", "academic_incremental", "--out", str(out2),
                 "--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"trace written to {out2}" and err[1].startswith("seed=0 sup|y|=")


def test_cli_verbose_prints_metrics_without_a_regulator(tmp_path, capsys):
    """The metrics read no regulator, so --verbose prints them for a resonant linear model too:
    A = 0.5, B = 1, C = 1, D = -1 has a transmission zero at S = 1.5."""
    mfile = tmp_path / "resonant.txt"
    mfile.write_text("1 1 1 1\n0.5\n1\n1\n-1\n1\n1\n1.5\n")
    cfg_file = tmp_path / "resonant.cfg"
    cfg_file.write_text(f"[model]\nname = lti:{mfile}\n[mpc]\nvariant = output_only\nN = 4\n"
                        "Q = 1\nR = 0\n[sim]\nsteps = 3\nx0 = 1\nw0 = 1\n")
    assert cfg.parse_config(cfg_file.read_text()).regulator is None
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out), "--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"trace written to {out}" and err[1].startswith("seed=0 sup|y|=")


def test_cli_seed_override(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(["simulate", "--config", "cement_mill_error_feedback",
                 "--seed", "7", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", "cement_mill_error_feedback",
                 "--seed", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_analyze_refuses_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", "academic_analyze", "--seed", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:      # a seed that is not an integer is usage too
        main(["simulate", "--config", "academic_incremental", "--seed", "abc"])
    assert exc.value.code == 2
    assert "must be an integer, or a:b for a sweep" in capsys.readouterr().err


def test_cli_bad_path_exit_code(capsys, tmp_path, monkeypatch):
    """A path that names no file, a directory included, is not found; a bare name that
    names no file is looked up as a preset."""
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    for path, message in (("/does/not/exist.cfg", "config file not found: /does/not/exist.cfg"),
                          ("./adir", "config file not found: ./adir"),
                          ("adir", "unknown preset 'adir'")):
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_wrong_spec_kind(capsys):
    analysis, scenario = "a config with an [analyze]", "a scenario config with a [sim]"
    for command, preset, needs in (("analyze", "academic_incremental", analysis),
                                   ("simulate", "academic_analyze", scenario),
                                   ("solve", "academic_analyze", scenario)):
        assert main([command, "--config", preset]) == 1
        assert capsys.readouterr().err == f"config error: {command} needs {needs} section\n"


def test_empty_observer_section_is_error_feedback_without_a_kind(tmp_path, capsys):
    """A bare [observer] header is present, so the loop would run error feedback: it needs kind."""
    text = cfg.read_config_file("cement_mill_error_feedback")
    head, _, tail = text.partition("[observer]")
    cfg_file = tmp_path / "bare.cfg"
    cfg_file.write_text(head + "[observer]\n[sim]" + tail.partition("[sim]")[2])
    assert main(["simulate", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == \
        "config error: missing required key 'kind' in section [observer]\n"


def test_failed_solves_are_reported_and_an_overflowing_sigma_reads_inf(tmp_path, capsys):
    """From x0 = 1e308 every solve fails and sigma overflows: the trace records inf with no
    RuntimeWarning, and stderr counts the failed solves, for a sweep's failed seed too."""
    text = cfg.read_config_file("academic_output_only")
    cfg_file = tmp_path / "far.cfg"
    cfg_file.write_text(text.replace("steps = 10", "steps = 3").replace("x0 = 1.0", "x0 = 1e308"))
    assert main(["simulate", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr()
    rows = [row.split(",") for row in out.out.splitlines()]
    col = rows[0].index("sigma")
    assert [row[col] for row in rows[1:]] == ["inf"] * 3
    assert out.err == "3 of 3 solves failed, first at t=0\n"
    # the --verbose metrics overflow the same way: sup|y| reads inf
    assert main(["simulate", "--config", str(cfg_file), "--verbose"]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == "seed=0 sup|y|=inf second_half=inf violation=0"
    assert main(["simulate", "--config", str(cfg_file), "--seed", "0:2",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == "".join(
        f"seed {s}: 3 of 3 solves failed, first at t=0\n" for s in (0, 1))


@pytest.mark.parametrize("dims, key, entries", [
    pytest.param("2 0 0 1", "R", "0.5 0 0 0.5 1 0", id="no_input"),
    pytest.param("2 1 0 0", "Q", "0.5 0 0 0.5 1 0", id="no_output")])
def test_empty_weight_is_a_config_error_at_its_line(dims, key, entries, tmp_path, capsys):
    """A model without inputs or outputs leaves R or Q empty, which MpcConfig refuses."""
    mfile = tmp_path / "plant.txt"
    mfile.write_text(f"{dims}\n{entries}\n")
    Q, R = ("", "1") if key == "Q" else ("1", "")
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text(f"[model]\nname = lti:{mfile}\n[mpc]\nvariant = output_only\nN = 4\n"
                        f"Q = {Q}\nR = {R}\n[sim]\nsteps = 3\nx0 = 1 0\n")
    line = 6 if key == "Q" else 7
    for command in ("simulate", "solve"):
        assert main([command, "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: {key} must be non-empty"), err


@pytest.mark.parametrize("case", ("unknown_name", "missing_file", "non_numeric", "short_file",
                                  "non_finite", "non_integer_header", "not_utf8"))
def test_model_that_cannot_be_loaded_is_a_config_error(case, tmp_path, capsys):
    """Every failure to load [model] name exits 1 at its line, for both kinds of config."""
    mfile = tmp_path / "plant.txt"
    if case == "non_numeric":
        mfile.write_text("1 1 1 1\n0.5 1 one 0 0 1 1\n")
    elif case == "short_file":
        mfile.write_text("1 1 1 1\n0.5 1 1 0\n")
    elif case == "non_finite":
        mfile.write_text("1 1 1 1\n0.5 1 1 0 nan 1 1\n")
    elif case == "non_integer_header":
        mfile.write_text("1.5 1 1 1\n0.5 1 1 0 0 1 1\n")
    elif case == "not_utf8":
        mfile.write_bytes(b"1 1 1 1\n0.5 1 \xff 0 0 1 1\n")
    name = "foo" if case == "unknown_name" else f"lti:{mfile}"
    design = "[mpc]\nvariant = incremental_input\nN = 8\nQ = 1\nR = 1\nT = 1\n"
    for command, tail in (("analyze", "[analyze]\ngamma_s = 1\n"),
                          ("simulate", "[sim]\nsteps = 3\nx0 = 0\nw0 = 1\n")):
        cfg_file = tmp_path / f"{command}.cfg"
        cfg_file.write_text(f"[model]\nname = {name}\n{design}{tail}")
        assert main([command, "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2:"), err


@pytest.mark.parametrize("edits, code, message", [
    pytest.param({"T = 1": "T = 2"}, 2, "the state dimension", id="mpc_T"),
    pytest.param({"T = 1": "T = 1\ngradient_tolerance = 1e-6"}, 1,
                 "line 11: analyze does not read 'gradient_tolerance'", id="gradient_tolerance"),
    pytest.param({"T = 1": "T = 1\nd = 2"}, 1,
                 "line 11: 'd' is read only by the look_ahead variant", id="d"),
    pytest.param({"Q = 1.0": "Q = -0.5"}, 1, "positive semidefinite", id="negative_Q"),
    pytest.param({"variant = incremental_input": "variant = output_only"}, 1,
                 "line 6: analyze certifies the incremental_input variant", id="variant"),
    pytest.param({"gamma_s = 1.0": "gamma_s = 1.0\nT = 1"}, 1,
                 "line 14: unknown key 'T' in section [analyze]", id="analyze_T"),
    pytest.param({"name = academic": "name = cement_mill", "Q = 1.0": "Q = 1 1",
                  "R = 1.0": "R = 1 1"}, 1, "line 3: analyze needs an exactly linear model",
                 id="nonlinear_model"),
    pytest.param({"N = 12": "N = 1"}, 1, "line 7: horizon N must be >= 2", id="N_one"),
    pytest.param({"gamma_s = 1.0": "gamma_s = 0"}, 1,
                 "line 13: gamma_s must be positive and finite", id="gamma_s_zero"),
    pytest.param({"gamma_s = 1.0": "gamma_s = nan"}, 1, "line 13: 'nan' is not finite",
                 id="gamma_s_nan"),
    pytest.param({"gamma_s = 1.0": "gamma_s = inf"}, 1, "line 13: 'inf' is not finite",
                 id="gamma_s_inf")])
def test_analyze_certifies_the_mpc_design(edits, code, message, tmp_path, capsys):
    """analyze reads variant, N, Q, R and T from [mpc] alone, validated as for a scenario."""
    lines = cfg.read_config_file("academic_analyze").splitlines()
    for old, new in edits.items():
        (i,) = [i for i, line in enumerate(lines) if line == old]
        lines[i] = new
    cfg_file = tmp_path / "analyze.cfg"
    cfg_file.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--config", str(cfg_file)]) == code
    out = capsys.readouterr()
    assert message in (out.out if code == 0 else out.err)


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


@pytest.mark.parametrize("seed", ["5:5", "3:1", "1:2:3", "a:b", ":"])
def test_cli_seed_sweep_rejects_empty_or_malformed_range(tmp_path, capsys, seed):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", "academic_incremental",
                 "--seed", seed, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_seed_sweep_rejects_negative_start_before_writing(tmp_path, capsys):
    """A sweep from a negative seed, or without --out, is refused before any worker writes."""
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", "academic_incremental",
                 "--seed=-2:1", "--out", str(out), "--jobs", "2"]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert list(tmp_path.glob("s_seed*.csv")) == []
    assert main(["simulate", "--config", "academic_incremental", "--seed", "0:2"]) == 1
    out = capsys.readouterr()
    assert out.err == "config error: seed sweeps need --out for the per-seed trace files\n"
    assert out.out == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_seed_sweep_refuses_an_analysis_config_before_running(tmp_path, capsys, jobs):
    """The config is parsed once before the sweep: no worker meets the AnalysisSpec."""
    assert main(["simulate", "--config", "academic_analyze", "--seed", "0:2",
                 "--out", str(tmp_path / "s.csv"), "--jobs", jobs]) == 1
    assert "simulate needs a scenario config with a [sim] section" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_seed_sweep_pool_no_larger_than_the_sweep(tmp_path, monkeypatch):
    import multiprocessing
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [(seed, None) for _, seed, _ in work]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    out = str(tmp_path / "sweep.csv")
    assert main(["simulate", "--config", "academic_incremental",
                 "--seed", "0:2", "--out", out, "--jobs", "8"]) == 0
    assert main(["simulate", "--config", "academic_incremental",
                 "--seed", "0:5", "--out", out, "--jobs", "3"]) == 0
    assert sizes == [2, 3]


def test_atomic_write_leaves_no_temp_files(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", "academic_output_only", "--out", str(out)]) == 0
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith("x.csv.tmp")]
    assert leftovers == []


@pytest.mark.parametrize("command, preset", [("analyze", "academic_analyze"),
                                             ("solve", "academic_incremental"),
                                             ("simulate", "academic_output_only")])
def test_out_that_cannot_be_written_exits_2_and_leaves_no_temp_file(command, preset, tmp_path,
                                                                    capsys):
    """An --out that is a directory, or lies in a missing one, is one line on stderr, exit 2."""
    (tmp_path / "dir").mkdir()
    for out in (tmp_path / "dir", tmp_path / "missing" / "x.txt"):
        assert main([command, "--config", preset, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err, err
    assert os.listdir(tmp_path) == ["dir"] and os.listdir(tmp_path / "dir") == []


def test_resonant_linear_model_has_no_regulator(tmp_path):
    """Resonance (S = 1.5 is a transmission zero) leaves the scenario without a regulator."""
    from conftest import write_lti
    from regfree_mpc.models import LinearSystem
    sys_ = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[-1.0]],
                        P_x=[[1.0]], P_y=[[1.0]], S=[[1.5]])
    mfile = tmp_path / "plant.txt"
    write_lti(sys_, mfile)
    spec = cfg.parse_config(f"[model]\nname = lti:{mfile}\n"
                            "[mpc]\nvariant = output_only\nN = 4\nQ = 1\nR = 0\n"
                            "[sim]\nsteps = 3\nx0 = 0\nw0 = 1\n")
    assert spec.regulator is None


def test_cli_lti_model_file_route(tmp_path, capsys):
    from conftest import write_lti
    from regfree_mpc.models import LinearSystem
    sys_ = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                        P_x=[[0.0]], P_y=[[1.0]], S=[[1.0]])
    mfile = tmp_path / "plant.txt"
    write_lti(sys_, mfile)
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
