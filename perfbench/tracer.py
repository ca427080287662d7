"""Spans and counters recorded around calls into the program's modules.

Nothing here edits the program: ``Tracer.install`` replaces module-level
names (and two class attributes) with timing wrappers, from outside, in the
round's own process. Each span keeps its total time, its self time (total
minus the time of wrapped calls made inside it) and its call count. Spans
live in memory and are summarised once the round ends.
"""

from __future__ import annotations

import functools
import os
import resource
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Wraps the program's layer boundaries and accumulates per-span figures."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.train_sys_s = 0.0
        self.step_durations = defaultdict(list)     # by ansatz depth
        self._children: list[float] = []

    def wrap(self, span: str, fn, before=None, after=None):
        """Return fn wrapped in a span; ``before``/``after`` see the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.total[span] += dt
                self.self_time[span] += dt - child
                self.calls[span] += 1
                if self._children:
                    self._children[-1] += dt
                if after:
                    after(args, kwargs, dt, state)

        return wrapper

    def _patch(self, owner, attr: str, span: str, before=None, after=None):
        setattr(owner, attr, self.wrap(span, getattr(owner, attr), before, after))

    def install(self):
        """Wrap every layer boundary the four pipelines cross."""
        from vqls_precond import ansatz, cli, dense, experiments, sparse, vqls

        p = self._patch
        p(cli, "_load_config", "cli.config")
        p(cli, "run", "experiments.run")
        for name in ("random_sparse", "random_rhs", "poisson_1d"):
            p(experiments, name, "sparse.generate")
        p(sparse.CsrMatrix, "__post_init__", "sparse.csr_init")
        p(experiments, "ilu0", "ilu.ilu0")
        p(experiments, "preconditioned_system", "ilu.precond")
        # condition_number reaches singular_values through the dense module.
        p(experiments, "singular_values", "dense.svd")
        p(dense, "singular_values", "dense.svd")
        p(experiments, "lu_solve", "dense.lu_solve")
        p(experiments, "build_system", "embedding.build")
        p(experiments, "extract_solution", "embedding.extract")
        p(experiments, "train", "vqls.train", before=_rusage_before, after=self._rusage_after)
        p(vqls, "cost_and_grad", "vqls.cost_and_grad", after=self._record_step)
        p(vqls.Adam, "step", "vqls.adam")
        # cost_and_grad calls the name imported into vqls; prepare_state the
        # one in ansatz.
        p(vqls, "_run_circuit", "ansatz.circuit")
        p(ansatz, "_run_circuit", "ansatz.circuit")
        p(ansatz, "_ry_kernel", "ansatz.ry", before=self._count_ry)
        p(ansatz, "_cnot_kernel", "ansatz.cnot", before=self._count_cnot)
        for name in ("_write_csv", "_write_manifest"):
            p(experiments, name, "experiments.io")
        p(experiments, "_write_atomic", "experiments.write_atomic",
          before=self._count_text_bytes)
        p(experiments, "write_trace_csv", "experiments.io",
          after=self._count_file_bytes)
        return self

    # -- hooks -------------------------------------------------------------

    def _count_ry(self, args, kwargs):
        amps = args[0]
        self.counts["gate_columns"] += amps.shape[1]
        self.counts["bytes_computed"] += 2 * amps.nbytes   # whole buffer read and written

    def _count_cnot(self, args, kwargs):
        amps = args[0]
        self.counts["gate_columns"] += amps.shape[1]
        self.counts["bytes_computed"] += amps.nbytes       # half the buffer read and written

    def _count_text_bytes(self, args, kwargs):
        self.counts["bytes_written"] += len(args[1].encode())

    def _count_file_bytes(self, args, kwargs, dt, state):
        self.counts["bytes_written"] += os.path.getsize(args[1])

    def _record_step(self, args, kwargs, dt, state):
        self.step_durations[args[0].depth].append(dt)

    def _rusage_after(self, args, kwargs, dt, before):
        now = resource.getrusage(resource.RUSAGE_SELF)
        self.counts["train_minflt"] += now.ru_minflt - before.ru_minflt
        self.train_sys_s += now.ru_stime - before.ru_stime

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures of one round, keyed by their benchmark names."""
        t, s, c = self.total, self.self_time, self.calls
        steps = c["vqls.cost_and_grad"]
        # The median step of the deepest circuit: a median over mixed depths
        # would fall between the depths' step costs.
        deepest = self.step_durations[max(self.step_durations)] if steps else [0.0]
        return {
            "ansatz.circuit_s": t["ansatz.circuit"],
            "ansatz.ry_s": t["ansatz.ry"],
            "ansatz.cnot_s": t["ansatz.cnot"],
            "ansatz.gate_columns": self.counts["gate_columns"],
            "ansatz.bytes_computed": self.counts["bytes_computed"],
            "vqls.steps": steps,
            "vqls.step_ms": 1e3 * statistics.median(deepest),
            "vqls.minflt_per_step": self.counts["train_minflt"] / steps if steps else 0.0,
            "vqls.sys_s": self.train_sys_s,
            "vqls.grad_self_s": s["vqls.cost_and_grad"],
            "vqls.adam_s": t["vqls.adam"],
            "vqls.train_self_s": s["vqls.train"],
            "experiments.io_s": t["experiments.io"],
            "experiments.bytes_written": self.counts["bytes_written"],
            "experiments.self_s": s["experiments.run"],
            "ilu.ilu0_s": t["ilu.ilu0"],
            "ilu.ilu0_calls": c["ilu.ilu0"],
            "ilu.precond_s": t["ilu.precond"],
            "sparse.generate_s": t["sparse.generate"],
            "sparse.csr_init_s": t["sparse.csr_init"],
            "sparse.csr_inits": c["sparse.csr_init"],
            "dense.svd_s": t["dense.svd"],
            "dense.svd_calls": c["dense.svd"],
            "dense.lu_solve_s": t["dense.lu_solve"],
            "embedding.build_s": t["embedding.build"],
            "embedding.extract_s": t["embedding.extract"],
            "cli.config_s": t["cli.config"],
        }


def _rusage_before(args, kwargs):
    return resource.getrusage(resource.RUSAGE_SELF)
