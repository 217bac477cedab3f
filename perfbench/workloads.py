"""The three seeded workloads: generated inputs, warm-up, timed operations, checks.

Instance i of a workload draws its inputs from its own generator seeded with
(seed, workload index, i), so the inputs do not depend on how many
instances a run gets through.  The library only ever sees the generated
x0, w0, noise seeds and matrices.
"""

import dataclasses
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

MILL_PRESETS = ("cement_mill_error_feedback", "cement_mill_nominal", "cement_mill_output_only")


# warm-up instances come from indices no run reaches; a multiple of every
# cycle length, so warm-up index WARM_UP + j has the kind of index j
WARM_UP = 3 * 13 * 100_000


def _rng(seed, workload_index, i):
    return np.random.default_rng([seed, workload_index, i])


def near(x, rng, share=0.005):
    """x with each coordinate scaled by a factor drawn from [1 - share, 1 + share]."""
    return x * (1.0 + share * rng.uniform(-1.0, 1.0, x.shape))


class Tally:
    """What the timed operations of one run did."""

    def __init__(self):
        self.latencies_ms = []      # one entry per timed operation
        self.units = 0              # operations counted for the rate
        self.busy_s = 0.0           # wall time of the timed operations
        self.attempted = 0          # solves (and analyses) attempted
        self.unconverged = 0        # returned without meeting the tolerance
        self.failed = 0             # raised, fell back, or failed a check
        self.problems = []          # first few check failures, for the report
        self.extra = defaultdict(list)

    def fail(self, count, message):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


@contextmanager
def timed_controller_steps(lib, sink):
    """Append the wall time of every MpcController.step, in ms, to sink."""
    cls = lib.mpc.MpcController
    original = cls.__dict__["step"]

    def step(self, x_p, w):
        t0 = clock()
        out = original(self, x_p, w)
        sink.append((clock() - t0) * 1e3)
        return out

    cls.step = step
    try:
        yield
    finally:
        cls.step = original


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


class MillClosedLoop:
    """Closed-loop episodes of the three shipped mill presets, one client."""

    name = "mill_closed_loop"
    index = 0
    tail_percentile = 95

    def __init__(self, lib, seed, size, out_dir):
        self.lib, self.seed = lib, seed
        self.steps = 300 if size == "full" else 20
        self.pass_size = len(MILL_PRESETS)
        cfg = lib.config
        self.texts = {p: cfg.read_config_file(p) for p in MILL_PRESETS}
        self.base = {p: cfg.parse_config(t) for p, t in self.texts.items()}
        self.trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(self.trace_dir, exist_ok=True)

    def inputs(self, i):
        preset = MILL_PRESETS[i % len(MILL_PRESETS)]
        rng = _rng(self.seed, self.index, i)
        models = self.lib.models
        return {"preset": preset,
                "x0": near(self.base[preset].x0, rng),
                "w0": rng.uniform(models.MILL_W_LO, models.MILL_W_HI),
                "noise_seed": int(rng.integers(2 ** 31))}

    def warm_up(self):
        for preset in MILL_PRESETS:
            spec = dataclasses.replace(self.base[preset], steps=10)
            self.lib.simulation.run(spec).write_csv(os.path.join(self.trace_dir, "warm_up.csv"))

    def run(self, i, tally):
        lib, inp = self.lib, self.inputs(i)
        path = os.path.join(self.trace_dir, f"{inp['preset']}.csv")
        try:
            with timed_controller_steps(lib, tally.latencies_ms):
                t0 = clock()
                spec = lib.config.parse_config(self.texts[inp["preset"]],
                                               seed_override=inp["noise_seed"])
                spec = dataclasses.replace(spec, x0=inp["x0"], w0=inp["w0"], steps=self.steps)
                trace = lib.simulation.run(spec)
                trace.write_csv(path)
                dt = clock() - t0
        except lib.errors.RegfreeMpcError as exc:
            tally.attempted += 1
            tally.fail(1, f"episode {i} ({inp['preset']}) raised {exc!r}")
            return
        tally.units += trace.steps
        tally.busy_s += dt
        tally.attempted += trace.steps
        fell_back = trace.failed_at is not None
        tally.unconverged += int(np.sum(~trace.converged)) - fell_back
        if fell_back:
            tally.fail(1, f"episode {i} ({inp['preset']}): controller fallback at t={trace.failed_at}")
        model = spec.model
        in_box = np.all((trace.u >= model.input_lo) & (trace.u <= model.input_hi), axis=1)
        finite = np.all(np.isfinite(np.hstack([trace.x, trace.w, trace.u, trace.y])), axis=1)
        value_ok = np.isfinite(trace.value)
        if fell_back:
            value_ok[trace.failed_at] = True    # a fallback step records no value
        finite &= value_ok
        bad = int(np.sum(~(in_box & finite)))
        if bad:
            tally.fail(bad, f"episode {i} ({inp['preset']}): {bad} steps out of the box or not finite")
        with open(path) as fh:
            lines = sum(1 for _ in fh)
        if lines != trace.steps + 1 or trace.steps != self.steps:
            tally.fail(1, f"episode {i}: {lines} CSV lines for {trace.steps} of {self.steps} steps")
        if i < self.pass_size:
            tally.extra["track_ise"].append(float(np.sum(trace.y ** 2)))

    def named_metrics(self, tally, metrics):
        return {"ctrl_p50_ms": metrics["op_p50_ms"], "ctrl_p95_ms": metrics["op_tail_ms"],
                "sim_steps_per_s": metrics["ops_per_s"],
                "track_ise": float(np.sum(tally.extra["track_ise"]))}


class MillLongHorizon:
    """Cold assemble + solve of the mill incremental OCP at long horizons."""

    name = "mill_long_horizon"
    index = 1
    tail_percentile = 90
    horizons = (12, 24, 48)

    def __init__(self, lib, seed, size, out_dir):
        self.lib, self.seed = lib, seed
        self.pass_size = 12 if size == "full" else 3
        spec = lib.config.parse_config(lib.config.read_config_file("cement_mill_nominal"))
        self.model, self.w_box = spec.model, (lib.models.MILL_W_LO, lib.models.MILL_W_HI)
        self.memory = np.tile(spec.u_init, spec.mpc.T)
        self.configs = {N: dataclasses.replace(spec.mpc, N=N) for N in self.horizons}

    def inputs(self, i):
        # states near the steady state of the drawn reference: from states
        # near the preset x0, a quarter of the N = 48 solves stall for ~1.7 s
        # each, and the time metrics of 25-s runs then spread by over 50 %
        # between seeds; here about 3 % of all solves stall
        rng = _rng(self.seed, self.index, i)
        w0 = rng.uniform(*self.w_box)
        x_ref, _ = self.lib.models.cement_mill_regulator(w0)
        return {"N": self.horizons[i % len(self.horizons)], "x0": near(x_ref, rng, 0.1),
                "w0": w0, "memory": self.memory.copy()}

    def warm_up(self):
        scratch = Tally()
        for j in range(2 * len(self.horizons)):
            self.run(WARM_UP + j, scratch)

    def run(self, i, tally):
        mpc, inp = self.lib.mpc, self.inputs(i)
        cfg = self.configs[inp["N"]]
        tally.attempted += 1
        try:
            t0 = clock()
            ocp = mpc.assemble(self.model, cfg, inp["x0"], inp["w0"], memory=inp["memory"])
            sol = mpc.solve(ocp)
            dt = clock() - t0
        except self.lib.errors.RegfreeMpcError as exc:
            tally.fail(1, f"solve {i} (N={inp['N']}) raised {exc!r}")
            return
        tally.latencies_ms.append(dt * 1e3)
        tally.units += 1
        tally.busy_s += dt
        tol = cfg.solver.gradient_tolerance
        tally.extra["kkt"].append({"instance": i, "N": inp["N"], "ms": dt * 1e3,
                                   "iterations": sol.iterations,
                                   "kkt_residual": sol.kkt_residual, "tolerance": tol,
                                   "converged": sol.converged})
        tally.unconverged += not (sol.converged and sol.kkt_residual <= tol)
        u = sol.u_opt
        if not (_finite(u, sol.x_pred, sol.value)
                and np.all(u >= self.model.input_lo) and np.all(u <= self.model.input_hi)):
            tally.fail(1, f"solve {i} (N={inp['N']}): input out of the box or not finite")

    def named_metrics(self, tally, metrics):
        lat = tally.latencies_ms
        return {"ocp_p50_ms": float(np.percentile(lat, 50)),
                "ocp_p90_ms": float(np.percentile(lat, 90))}


def random_stable_lti(lib, rng, n=4, m=2, p=2, spectral_radius=0.9):
    """Random LTI plant without exosystem, A scaled to the given spectral radius."""
    A = rng.normal(size=(n, n))
    A *= spectral_radius / max(abs(np.linalg.eigvals(A)))
    return lib.models.LinearSystem(A=A, B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)),
                                   D=0.3 * rng.normal(size=(p, m)), P_x=np.zeros((n, 0)),
                                   P_y=np.zeros((p, 0)), S=np.zeros((0, 0)))


class LinearCertificates:
    """Exactly linear models: dense-path solves, box-constrained GN, certificates."""

    name = "linear_certificates"
    index = 2
    tail_percentile = 90
    # analyze_linear is 7 of 13 operations, so the median operation is an
    # analysis; the two N = 307 solves are the slowest 2 of 13, so p90 is one
    CYCLE = ("analyze", ("academic", 10), "analyze", ("academic", 100), "analyze",
             ("academic", 307), "analyze", ("lti", 10), "analyze", ("academic", 307),
             "analyze", ("lti", 40), "analyze")
    # stated tolerances of the independent checks
    LSQ_INPUT_TOL = 1e-6            # max |u_gn - u_lsq| on a box of width 2
    LSQ_VALUE_RTOL = 1e-9
    EPSILON_O, EPSILON_O_TOL = 0.3343, 1e-4
    N_1, N_1_TOL = 9.95, 5e-3

    def __init__(self, lib, seed, size, out_dir):
        from scipy.optimize import lsq_linear
        self.lsq_linear = lsq_linear
        self.lib, self.seed = lib, seed
        self.pass_size = len(self.CYCLE)
        self.warm_rounds = 4 if size == "full" else 1
        cfg = lib.config
        self.analysis = cfg.parse_config(cfg.read_config_file("academic_analyze"))
        self.academic = lib.models.resolve_model(self.analysis.model_name)
        acad = cfg.parse_config(cfg.read_config_file("academic_incremental"))
        self.academic_configs = {N: dataclasses.replace(acad.mpc, N=N) for N in (10, 100, 307)}
        self.lti_configs = {N: lib.mpc.MpcConfig(variant="incremental_input", N=N, Q=np.eye(2),
                                                 R=0.1 * np.eye(2), T=1) for N in (10, 40)}

    def inputs(self, i):
        kind = self.CYCLE[i % len(self.CYCLE)]
        if kind == "analyze":
            return {"kind": kind}
        rng = _rng(self.seed, self.index, i)
        if kind[0] == "academic":
            return {"kind": kind, "x0": rng.uniform(-2.0, 2.0, 1), "memory": rng.uniform(-1.0, 1.0, 1)}
        return {"kind": kind, "system": random_stable_lti(self.lib, rng),
                "x0": 3.0 * rng.normal(size=4), "memory": np.zeros(2)}

    def warm_up(self):
        # every distinct problem size, several times: the first solves at a
        # new size can be many times slower while BLAS threads start up
        scratch = Tally()
        for k in range(self.warm_rounds):
            for j in range(len(self.CYCLE)):
                if k == 0 or self.CYCLE[j] != "analyze":
                    self.run(WARM_UP + j + k * len(self.CYCLE), scratch)

    def run(self, i, tally):
        lib, inp = self.lib, self.inputs(i)
        tally.attempted += 1
        try:
            if inp["kind"] == "analyze":
                self._analyze(i, tally)
            else:
                self._solve(i, inp, tally)
        except lib.errors.RegfreeMpcError as exc:
            tally.fail(1, f"operation {i} ({inp['kind']}) raised {exc!r}")

    def _timed(self, tally, t0, key):
        dt = clock() - t0
        tally.latencies_ms.append(dt * 1e3)
        tally.extra[key].append(dt * 1e3)
        tally.units += 1
        tally.busy_s += dt

    def _analyze(self, i, tally):
        a = self.analysis
        t0 = clock()
        rep = self.lib.linear_analysis.analyze_linear(self.academic.linear, a.T, a.N, a.Q, a.R,
                                                      gamma_s=a.gamma_s)
        self._timed(tally, t0, "analyze_ms")
        b = rep.bounds
        if abs(b.epsilon_o - self.EPSILON_O) > self.EPSILON_O_TOL or abs(b.N_1 - self.N_1) > self.N_1_TOL:
            tally.fail(1, f"analysis {i}: epsilon_o={b.epsilon_o!r} N_1={b.N_1!r}")

    def _solve(self, i, inp, tally):
        mpc = self.lib.mpc
        kind, N = inp["kind"]
        if kind == "academic":
            model, cfg = self.academic, self.academic_configs[N]
        else:
            model = inp["system"].to_system_model(input_lo=-np.ones(2), input_hi=np.ones(2))
            cfg = self.lti_configs[N]
        t0 = clock()
        ocp = mpc.assemble(model, cfg, inp["x0"], np.zeros(0), memory=inp["memory"])
        sol = mpc.solve(ocp)
        self._timed(tally, t0, "ocp_ms")
        tol = cfg.solver.gradient_tolerance
        tally.unconverged += not (sol.converged and sol.kkt_residual <= tol)
        if not _finite(sol.u_opt, sol.x_pred, sol.value):
            tally.fail(1, f"solve {i} ({kind}, N={N}): not finite")
        elif kind == "lti":
            self._check_against_lsq(i, N, ocp, sol, model, tally)

    def _check_against_lsq(self, i, N, ocp, sol, model, tally):
        """Independent box-constrained least squares on the stacked residual."""
        A, b = ocp.dense_matrices()
        # BVLS stops after n active-set iterations by default, short of the
        # optimum on some of these instances; 100 n is ample
        ref = self.lsq_linear(A, b, bounds=(np.tile(model.input_lo, N), np.tile(model.input_hi, N)),
                              method="bvls", tol=1e-12, max_iter=100 * A.shape[1])
        if ref.status <= 0:
            tally.fail(1, f"solve {i} (lti, N={N}): lsq_linear did not converge ({ref.message})")
            return
        r = A @ ref.x - b
        value_ref = float(r @ r)
        du = float(np.max(np.abs(sol.u_opt.ravel() - ref.x)))
        dv = abs(sol.value - value_ref)
        if du > self.LSQ_INPUT_TOL or dv > self.LSQ_VALUE_RTOL * max(1.0, value_ref):
            tally.fail(1, f"solve {i} (lti, N={N}): |du|={du:.3g} |dJ|={dv:.3g} against lsq_linear")

    def named_metrics(self, tally, metrics):
        ocp, analyze = tally.extra["ocp_ms"], tally.extra["analyze_ms"]
        return {"ocp_p50_ms": float(np.percentile(ocp, 50)),
                "ocp_p90_ms": float(np.percentile(ocp, 90)),
                "analyze_ms": float(np.median(analyze))}


WORKLOADS = {w.name: w for w in (MillClosedLoop, MillLongHorizon, LinearCertificates)}
