"""Sectioned key=value scenario configs, shipped presets, and spec rendering.

The format is INI-like: `[section]` headers and `key = value` lines, `#` or
`;` comments.  Unknown keys are rejected with their line number so presets
stay diff-auditable.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResonanceError
from .estimation import ObserverConfig
from .linear_analysis import solve_regulator
from .models import SimNoiseSpec, cement_mill_regulator, resolve_model
from .mpc import MpcConfig, SolverSettings
from .simulation import ScenarioSpec

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")

_SCHEMA = {
    "model": {"name": "str"},
    "mpc": {
        "variant": "str", "N": "int", "Q": "vec", "R": "vec", "d": "int", "T": "int",
        "gradient_tolerance": "float",
    },
    "observer": {
        "kind": "str", "xhat0": "vec", "L": "vec", "sigma0": "float",
        "process_noise": "float", "measurement_noise": "float",
        "noise": "str", "noise_lo": "vec", "noise_hi": "vec",
    },
    "sim": {"steps": "int", "x0": "vec", "w0": "vec", "seed": "int", "u_init": "vec"},
    "analyze": {"T": "int", "N": "int", "gamma_s": "float"},
}


def _parse_value(kind, raw, line):
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "vec":
            return np.array([float(tok) for tok in raw.split()], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {kind}", line=line) from exc
    raise ConfigError(f"unknown schema kind {kind}", line=line)


def parse_sections(text):
    """Raw sections: {section: {key: (typed value, line)}} with strict keys."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
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


def _diag(vec):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    return np.diag(vec)


@dataclass(frozen=True)
class AnalysisSpec:
    model_name: str
    T: int
    N: int
    Q: np.ndarray
    R: np.ndarray
    gamma_s: float = 1.0


def build_mpc_config(sections) -> MpcConfig:
    variant = _need(sections, "mpc", "variant")
    tol = _opt(sections, "mpc", "gradient_tolerance")
    solver = SolverSettings() if tol is None else SolverSettings(gradient_tolerance=tol)
    return MpcConfig(
        variant=variant,
        N=_need(sections, "mpc", "N"),
        Q=_diag(_need(sections, "mpc", "Q")),
        R=_diag(_need(sections, "mpc", "R")),
        d=_opt(sections, "mpc", "d"),
        T=_opt(sections, "mpc", "T"),
        solver=solver,
    )


def _default_regulator(model):
    """Diagnostics regulator: analytic for the mill, Sylvester for linear models."""
    if model.name == "cement_mill":
        class _MillRegulator:
            def pi_x(self, w):
                return cement_mill_regulator(w)[0]

            def pi_u(self, w):
                return cement_mill_regulator(w)[1]

        return _MillRegulator()
    if model.linear is not None:
        try:
            return solve_regulator(model.linear)
        except ResonanceError:
            return None
    return None


def build_scenario(sections, seed_override=None) -> ScenarioSpec:
    model = resolve_model(_need(sections, "model", "name"))
    cfg = build_mpc_config(sections)
    feedback = "exact_state"
    observer = None
    noise = SimNoiseSpec()
    if "observer" in sections and sections["observer"]:
        feedback = "error_feedback"
        kind = _need(sections, "observer", "kind")
        nj = model.n_p + model.q
        sigma0 = _opt(sections, "observer", "sigma0", 100.0)
        qscale = _opt(sections, "observer", "process_noise", 1.0)
        rscale = _opt(sections, "observer", "measurement_noise", 1.0)
        L = _opt(sections, "observer", "L")
        observer = ObserverConfig(
            kind=kind,
            xhat0=_need(sections, "observer", "xhat0"),
            L=None if L is None else np.asarray(L, dtype=float).reshape(nj, model.p),
            Sigma0=sigma0 * np.eye(nj),
            Qproc=qscale * np.eye(nj),
            Rmeas=rscale * np.eye(model.p),
        )
        kind_noise = _opt(sections, "observer", "noise", "none")
        if kind_noise == "uniform":
            noise = SimNoiseSpec(distribution="uniform",
                                 lo=_need(sections, "observer", "noise_lo"),
                                 hi=_need(sections, "observer", "noise_hi"))
        elif kind_noise != "none":
            raise ConfigError(f"unknown noise kind {kind_noise!r}")
    seed = _opt(sections, "sim", "seed", 0)
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    w0 = _opt(sections, "sim", "w0")
    if w0 is None:
        w0 = np.zeros(model.q)
    return ScenarioSpec(
        model=model,
        mpc=cfg,
        x0=_need(sections, "sim", "x0"),
        w0=w0,
        steps=_need(sections, "sim", "steps"),
        feedback=feedback,
        observer=observer,
        noise=noise,
        seed=seed,
        regulator=_default_regulator(model),
        u_init=_opt(sections, "sim", "u_init"),
    )


def build_analysis(sections) -> AnalysisSpec:
    return AnalysisSpec(
        model_name=_need(sections, "model", "name"),
        T=_need(sections, "analyze", "T"),
        N=_need(sections, "analyze", "N"),
        Q=_diag(_need(sections, "mpc", "Q")),
        R=_diag(_need(sections, "mpc", "R")),
        gamma_s=_opt(sections, "analyze", "gamma_s", 1.0),
    )


def parse_config(text, seed_override=None):
    """ScenarioSpec when [sim] is present, AnalysisSpec when only [analyze] is."""
    sections = parse_sections(text)
    if "sim" in sections:
        return build_scenario(sections, seed_override=seed_override)
    if "analyze" in sections:
        return build_analysis(sections)
    raise ConfigError("config needs a [sim] or an [analyze] section")


# ---------------------------------------------------------------------------
# rendering (presets are written in exactly this canonical form)

def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.ndarray):
        return " ".join(repr(float(x)) for x in np.atleast_1d(v))
    return str(v)


def render_scenario(spec: ScenarioSpec) -> str:
    lines = ["[model]", f"name = {spec.model.name}", "", "[mpc]"]
    cfg = spec.mpc
    lines.append(f"variant = {cfg.variant}")
    lines.append(f"N = {cfg.N}")
    lines.append(f"Q = {_fmt(np.diag(cfg.Q))}")
    lines.append(f"R = {_fmt(np.diag(cfg.R))}")
    if cfg.d is not None:
        lines.append(f"d = {cfg.d}")
    if cfg.T is not None:
        lines.append(f"T = {cfg.T}")
    if cfg.solver != SolverSettings():
        lines.append(f"gradient_tolerance = {_fmt(cfg.solver.gradient_tolerance)}")
    if spec.observer is not None:
        lines += ["", "[observer]"]
        ob = spec.observer
        lines.append(f"kind = {ob.kind}")
        lines.append(f"xhat0 = {_fmt(ob.xhat0)}")
        if ob.L is not None:
            lines.append(f"L = {_fmt(ob.L.ravel())}")
        if ob.Sigma0 is not None:
            lines.append(f"sigma0 = {_fmt(float(ob.Sigma0[0, 0]))}")
        if ob.Qproc is not None:
            lines.append(f"process_noise = {_fmt(float(ob.Qproc[0, 0]))}")
        if ob.Rmeas is not None:
            lines.append(f"measurement_noise = {_fmt(float(ob.Rmeas[0, 0]))}")
        if spec.noise.distribution == "uniform":
            lines.append("noise = uniform")
            lines.append(f"noise_lo = {_fmt(spec.noise.lo)}")
            lines.append(f"noise_hi = {_fmt(spec.noise.hi)}")
    lines += ["", "[sim]"]
    lines.append(f"steps = {spec.steps}")
    lines.append(f"x0 = {_fmt(spec.x0)}")
    if spec.w0.size:
        lines.append(f"w0 = {_fmt(spec.w0)}")
    lines.append(f"seed = {spec.seed}")
    if spec.u_init is not None:
        lines.append(f"u_init = {_fmt(np.asarray(spec.u_init))}")
    return "\n".join(lines) + "\n"


def preset_path(name):
    path = os.path.join(PRESET_DIR, f"{name}.cfg")
    if not os.path.exists(path):
        raise ConfigError(f"unknown preset {name!r}")
    return path


def list_presets():
    return sorted(os.path.splitext(f)[0] for f in os.listdir(PRESET_DIR) if f.endswith(".cfg"))


def read_config_file(path):
    """Config text from a file path, falling back to a shipped preset name."""
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    base = os.path.splitext(os.path.basename(path))[0]
    if base == path:
        with open(preset_path(path)) as fh:
            return fh.read()
    raise ConfigError(f"config file not found: {path}")
