"""Sectioned key=value scenario configs and shipped presets.

The format is INI-like: `[section]` headers and `key = value` lines; `#`
starts a comment anywhere on a line, `;` only at its start.  Unknown keys
are rejected with their line number so presets stay diff-auditable.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RegfreeMpcError, ResonanceError, ShapeError
from .estimation import ObserverConfig
from .linear_analysis import horizon_bounds, solve_regulator
from .models import LinearSystem, _sized, cement_mill_regulator, resolve_model
from .mpc import MpcConfig, SolverSettings
from .simulation import ScenarioSpec

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")

_SCHEMA = {     # every key is unique across sections, so a key names its line
    "model": {"name": "str"},
    "mpc": {
        "variant": "str", "N": "int", "Q": "vec", "R": "vec", "d": "int", "T": "int",
        "gradient_tolerance": "float",
    },
    "observer": {"kind": "str", "xhat0": "vec", "L": "vec", "noise_lo": "vec", "noise_hi": "vec"},
    "sim": {"steps": "int", "x0": "vec", "w0": "vec", "seed": "int", "u_init": "vec"},
    "analyze": {"gamma_s": "float"},
}


def _parse_value(kind, raw, line):
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        value = np.array([float(tok) for tok in raw.split()]) if kind == "vec" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {kind}", line=line) from exc
    if not np.isfinite(value).all():
        raise ConfigError(f"{raw!r} is not finite", line=line)
    return value


def parse_sections(text):
    """Raw sections: {section: {key: (typed value, line)}} with strict keys."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        schema = _SCHEMA[current]
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        sections[current][key] = (_parse_value(schema[key], raw_val, lineno), lineno)
    return sections


def _need(sections, section, key):
    try:
        return sections[section][key][0]
    except KeyError:
        raise ConfigError(f"missing required key {key!r} in section [{section}]") from None


def _opt(sections, section, key, default=None):
    if section in sections and key in sections[section]:
        return sections[section][key][0]
    return default


@dataclass(frozen=True)
class AnalysisSpec:
    model_name: str
    system: LinearSystem    # the model loaded once from [model] name
    T: int
    N: int
    Q: np.ndarray
    R: np.ndarray
    gamma_s: float = 1.0


def build_mpc_config(sections) -> MpcConfig:
    tol = _opt(sections, "mpc", "gradient_tolerance")
    return MpcConfig(
        variant=_need(sections, "mpc", "variant"),
        N=_need(sections, "mpc", "N"),
        Q=np.diag(_need(sections, "mpc", "Q")),
        R=np.diag(_need(sections, "mpc", "R")),
        d=_opt(sections, "mpc", "d"),
        T=_opt(sections, "mpc", "T"),
        solver=SolverSettings() if tol is None else SolverSettings(gradient_tolerance=tol),
    )


def _default_regulator(model):
    """Diagnostics regulator: analytic for the mill, Sylvester for linear models."""
    if model.name == "cement_mill":
        return cement_mill_regulator
    if model.linear is not None:
        try:
            return solve_regulator(model.linear)
        except ResonanceError:
            return None
    return None


def _model_of(sections):
    """The named model, with Q, R, L and the noise bounds checked against its dimensions
    (analyze has no ScenarioSpec, L is reshaped here, ObserverConfig compares lo with hi)."""
    name = _need(sections, "model", "name")
    try:
        model = resolve_model(name)
    except (DomainError, ShapeError, OSError) as exc:
        raise ConfigError(f"cannot load model {name!r}: {exc}", key="name") from exc
    nj = model.n_p + model.q
    for section, key, size in (("mpc", "Q", model.p), ("mpc", "R", model.m),
                               ("observer", "L", nj * model.p),
                               ("observer", "noise_lo", model.p),
                               ("observer", "noise_hi", model.p)):
        value = _opt(sections, section, key)
        if value is not None:
            _sized(value, size, key)
    return model


def build_scenario(sections, seed_override=None) -> ScenarioSpec:
    model = _model_of(sections)
    nj = model.n_p + model.q
    cfg = build_mpc_config(sections)
    observer = None
    if "observer" in sections:
        kind = _need(sections, "observer", "kind")
        L = _opt(sections, "observer", "L")
        observer = ObserverConfig(kind=kind, xhat0=_need(sections, "observer", "xhat0"),
                                  L=None if L is None else L.reshape(nj, model.p),
                                  noise_lo=_opt(sections, "observer", "noise_lo"),
                                  noise_hi=_opt(sections, "observer", "noise_hi"))
    seed = _opt(sections, "sim", "seed", 0) if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError("seed must be nonnegative", key="seed" if seed_override is None else None)
    return ScenarioSpec(
        model=model,
        mpc=cfg,
        x0=_need(sections, "sim", "x0"),
        w0=_opt(sections, "sim", "w0", np.zeros(model.q)),
        steps=_need(sections, "sim", "steps"),
        observer=observer,
        seed=seed,
        regulator=_default_regulator(model),
        u_init=_opt(sections, "sim", "u_init"),
    )


def build_analysis(sections) -> AnalysisSpec:
    """The [mpc] design that analyze certifies: the T-periodic incremental one."""
    model = _model_of(sections)
    if model.linear is None:
        raise ConfigError(f"analyze needs an exactly linear model, got {model.name!r}", key="name")
    variant = _need(sections, "mpc", "variant")
    if variant != "incremental_input":
        raise ConfigError(f"analyze certifies the incremental_input variant, got {variant!r}",
                          key="variant")
    if "gradient_tolerance" in sections["mpc"]:
        raise ConfigError("analyze does not read 'gradient_tolerance'", key="gradient_tolerance")
    mpc = build_mpc_config(sections)
    gamma_s = _opt(sections, "analyze", "gamma_s", 1.0)
    horizon_bounds(gamma_s, 1.0, mpc.N)    # refuses N and gamma_s as analyze will
    return AnalysisSpec(model_name=model.name, system=model.linear, T=mpc.T, N=mpc.N,
                        Q=mpc.Q, R=mpc.R, gamma_s=gamma_s)


def parse_config(text, seed_override=None):
    """ScenarioSpec when [sim] is present, AnalysisSpec when only [analyze] is.

    A library error that names a key present in the text is a ConfigError at its line."""
    sections = parse_sections(text)
    if "analyze" in sections and ("sim" in sections or "observer" in sections):
        raise ConfigError("[analyze] excludes [sim] and [observer]")
    try:
        if "sim" in sections:
            return build_scenario(sections, seed_override=seed_override)
        if "analyze" in sections:
            return build_analysis(sections)
    except RegfreeMpcError as exc:
        lines = {key: line for keys in sections.values() for key, (_, line) in keys.items()}
        if exc.key not in lines:
            raise
        raise ConfigError(f"{exc} (key {exc.key!r})", line=lines[exc.key]) from exc
    raise ConfigError("config needs a [sim] or an [analyze] section")


def read_config_file(path):
    """Config text from a file path, falling back to a shipped preset name."""
    if not os.path.isfile(path):
        if os.path.splitext(os.path.basename(path))[0] != path:
            raise ConfigError(f"config file not found: {path}")
        name, path = path, os.path.join(PRESET_DIR, f"{path}.cfg")
        if not os.path.exists(path):
            raise ConfigError(f"unknown preset {name!r}")
    with open(path) as fh:
        return fh.read()
