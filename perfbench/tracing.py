"""Span tracer that wraps the library's public functions from outside.

Every wrapped call records one span (id, parent id, name, start, end,
instance id) while `keep_spans` is true.  Spans stay in memory, in flat
arrays, until `write_spans` is called.  Calls, total time and self time
(total minus the time of child spans) are accumulated per name while spans
close, so per-layer numbers need no second pass over the spans.
"""

import os
import time
from array import array
from collections import Counter

_clock = time.perf_counter


def trace_targets(lib):
    """(owner, attribute, span name) for each wrapped name, where it is looked up.

    `MpcController.step` finds `assemble` and `solve` as globals of `mpc`;
    `run` finds `observer_step` and `memory_reference` as globals of
    `simulation`; the controller imports `step_memory` from `augmentation`
    at call time; `analyze_linear` reaches the Riccati helpers through the
    globals of `linear_analysis`.  Methods are wrapped on their classes.
    """
    SystemModel, Ocp = lib.models.SystemModel, lib.mpc.Ocp
    la = lib.linear_analysis
    return [
        (SystemModel, "step", "models.step"),
        (SystemModel, "jacobians_f", "models.jacobians_f"),
        (SystemModel, "jacobians_h", "models.jacobians_h"),
        (lib.mpc, "assemble", "mpc.assemble"),
        (lib.mpc, "solve", "mpc.solve"),
        (Ocp, "rollout", "mpc.rollout"),
        (Ocp, "cost", "mpc.cost"),
        (Ocp, "gradient", "mpc.gradient"),
        (Ocp, "cost_gradient_hessian", "mpc.cost_gradient_hessian"),
        (Ocp, "solve_dense", "mpc.solve_dense"),
        (lib.simulation, "observer_step", "estimation.observer_step"),
        (lib.simulation, "memory_reference", "augmentation.memory_reference"),
        (lib.augmentation, "step_memory", "augmentation.step_memory"),
        (lib.simulation, "run", "simulation.run"),
        (lib.simulation.SimTrace, "write_csv", "simulation.write_csv"),
        (la, "analyze_linear", "linear_analysis.analyze_linear"),
        (la, "dare", "linear_analysis.dare"),
        (la, "lqr_gain", "linear_analysis.lqr_gain"),
        (la, "epsilon_o_generalized_eig", "linear_analysis.epsilon_o_generalized_eig"),
        (la, "relative_degree_and_zeros", "linear_analysis.relative_degree_and_zeros"),
        (lib.config, "parse_config", "config.parse_config"),
    ]


def _original(owner, attr):
    # the class __dict__ holds the plain function; getattr would bind it
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.names = {}     # span name -> code stored with each span
        self.spans = tuple(array(code) for code in "qqiddq")   # id, parent, name, t0, t1, instance
        self.keep_spans = True
        self.instance = -1
        # frame: [span id, child seconds, {child name: count}]
        self._stack = [[0, 0.0, {}]]
        self._next_id = 1
        self._saved = []
        self.reset_totals()

    def reset_totals(self):
        self.totals = {}            # name -> [calls, seconds, self seconds]
        self.counts = Counter()     # work counters that are not span totals

    def install(self, lib):
        hooks = {"mpc.solve": (self._solve_returned, self._solve_raised),
                 "simulation.write_csv": (self._csv_written, None)}
        for owner, attr, name in trace_targets(lib):
            fn = _original(owner, attr)
            if fn is None:      # gone from the library: its metrics read 0
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, *hooks.get(name, (None, None))))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, on_return, on_raise):
        stack = self._stack
        sids, parents, names, starts, ends, instances = self.spans
        code = self.names.setdefault(name, len(self.names))

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0, {}]
            self._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_raise is not None:
                    on_raise()
                raise
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                kids = parent[2]
                kids[name] = kids.get(name, 0) + 1
                tot = self.totals.get(name)
                if tot is None:
                    tot = self.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if self.keep_spans:
                    sids.append(frame[0])
                    parents.append(parent[0])
                    names.append(code)
                    starts.append(t0)
                    ends.append(t1)
                    instances.append(self.instance)
            if on_return is not None:
                on_return(frame, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters that need the call's result ---------------------------------

    def _solve_returned(self, frame, sol, args):
        c = self.counts
        c["mpc.gn_iters"] += sol.iterations
        c["mpc.unconverged"] += not sol.converged
        kids = frame[2]
        if kids.get("mpc.cost_gradient_hessian", 0):
            # Ocp.cost directly under solve: the initial iterate, each
            # line-search trial, and the re-evaluation in _finish
            trials = kids.get("mpc.cost", 0) - 2
            c["mpc.backtracks"] += trials - sol.iterations

    def _solve_raised(self):
        self.counts["mpc.failed"] += 1

    def _csv_written(self, frame, result, args):
        self.counts["simulation.write_csv.bytes"] += os.path.getsize(args[1])


    def write_spans(self, path):
        """Kept spans as CSV in closing order, times in seconds from the earliest start."""
        sids, parents, codes, starts, ends, instances = self.spans
        names = {code: name for name, code in self.names.items()}
        base = min(starts, default=0.0)
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s,instance\n")
            for row in zip(sids, parents, codes, starts, ends, instances):
                fh.write(f"{row[0]},{row[1]},{names[row[2]]},{row[3] - base:.9f},"
                         f"{row[4] - base:.9f},{row[5]}\n")
