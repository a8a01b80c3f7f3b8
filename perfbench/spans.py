"""Spans around calls into thermwit's public functions, and the per-layer
metrics derived from them.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces each
traced function in every ``thermwit`` module namespace that binds it (for
example ``witness.eig_hermitian`` and ``cli.ree_lower_bound`` as well as
``qops.eig_hermitian``) with a wrapper that records a span, and
``Tracer.uninstall`` puts the originals back. A span holds its name, start,
end, parent span and the job it belongs to; self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function, attribute read from the call) -- the attribute is what a
# per-layer count needs from the arguments or the returned value.
TARGETS = (
    ("cli", "main", None),
    ("models", "build_spin_hamiltonian", lambda args, res: res.matrix.nbytes),
    ("models", "ground_state", None),
    ("qops", "eig_hermitian", lambda args, res: args[0].dim),
    ("thermo", "canonical_scalars", None),
    ("witness", "sweep", lambda args, res: len(res.reports)),
    ("ent", "ree_lower_bound", lambda args, res: res.iterations),
    ("ent", "ree_upper_bound", lambda args, res: (res.iterations, res.converged)),
    ("ent", "energy_witness", None),
    ("gas", "gas_state", None),
    ("gas", "solve_mu", None),
    ("gas", "occupation", None),
    ("gas", "fit_entropy_scaling", None),
)

#: Per-layer metrics reported by a traced run: name -> unit.
LAYER_UNITS = {
    "models.build_s": "s",
    "models.h_bytes_max": "bytes",
    "models.ground_state_s": "s",
    "qops.eig_s": "s",
    "qops.eig_calls": "count",
    "qops.eig_dim_max": "count",
    "thermo.scalars_s": "s",
    "thermo.scalars_calls": "count",
    "witness.sweep_self_s": "s",
    "witness.bisect_evals": "count",
    "cli.main_self_s": "s",
    "cli.out_bytes": "bytes",
    "ent.lower_s": "s",
    "ent.cut_evals": "count",
    "ent.upper_s": "s",
    "ent.fw_iterations": "count",
    "ent.fw_converged_frac": "ratio",
    "ent.energy_witness_s": "s",
    "gas.state_s": "s",
    "gas.solve_mu_s": "s",
    "gas.solve_mu_calls": "count",
    "gas.occupation_per_solve": "count",
    "gas.fit_s": "s",
    "trace_overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "child", "attr")

    def __init__(self, name: str, job: int, parent: int, start: float) -> None:
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.attr = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, read_attr):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, self.job, parent, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if read_attr is not None:
                span.attr = read_attr(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "thermwit" or key.startswith("thermwit.")]
        for module_name, func_name, read_attr in TARGETS:
            original = getattr(sys.modules[f"thermwit.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, read_attr)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def job_span(self, index: int):
        """Root span of one job; every span inside it carries the job index."""
        self.job = index
        span = Span("job", index, -1, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.job = -1

    def write_csv(self, path: Path, pass_of_span) -> None:
        """One line per span: pass, job, id, parent, name, start, end, self."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("pass,job,id,parent,name,start_s,end_s,self_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{pass_of_span(i)},{s.job},{i},{s.parent},{s.name},"
                         f"{s.start:.9f},{s.end:.9f},{s.self_time:.9f}\n")


def layer_metrics(spans: list[Span], lo: int, hi: int, out_bytes: int) -> dict[str, float]:
    """Per-layer totals over the spans ``spans[lo:hi]`` of one pass. Times are
    inclusive unless the name says ``self``."""
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    scalars_in_sweep: Counter = Counter()  # sweep span index -> scalars calls
    occupations_in_solve = 0
    cut_evals = fw_iterations = fw_converged = eig_dim = h_bytes = 0
    for s in spans[lo:hi]:
        total[s.name] += s.duration
        self_time[s.name] += s.self_time
        calls[s.name] += 1
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "thermo.canonical_scalars" and parent == "witness.sweep":
            scalars_in_sweep[s.parent] += 1
        elif s.name == "gas.occupation" and parent == "gas.solve_mu":
            occupations_in_solve += 1
        if s.attr is None:  # no attribute: the call raised, or none is read
            continue
        if s.name == "qops.eig_hermitian":
            eig_dim = max(eig_dim, s.attr)
        elif s.name == "models.build_spin_hamiltonian":
            h_bytes = max(h_bytes, s.attr)
        elif s.name == "ent.ree_lower_bound":
            cut_evals += s.attr
        elif s.name == "ent.ree_upper_bound":
            fw_iterations += s.attr[0]
            fw_converged += bool(s.attr[1])
    # a sweep evaluates the canonical scalars once per grid point (attr) and
    # once per bisection step
    bisect_evals = sum(
        scalars_in_sweep[i] - spans[i].attr
        for i in range(lo, hi)
        if spans[i].name == "witness.sweep" and spans[i].attr is not None
    )
    solves = calls["gas.solve_mu"]
    upper_calls = calls["ent.ree_upper_bound"]
    return {
        "models.build_s": total["models.build_spin_hamiltonian"],
        "models.h_bytes_max": h_bytes,
        "models.ground_state_s": total["models.ground_state"],
        "qops.eig_s": total["qops.eig_hermitian"],
        "qops.eig_calls": calls["qops.eig_hermitian"],
        "qops.eig_dim_max": eig_dim,
        "thermo.scalars_s": total["thermo.canonical_scalars"],
        "thermo.scalars_calls": calls["thermo.canonical_scalars"],
        "witness.sweep_self_s": self_time["witness.sweep"],
        "witness.bisect_evals": bisect_evals,
        "cli.main_self_s": self_time["cli.main"],
        "cli.out_bytes": out_bytes,
        "ent.lower_s": total["ent.ree_lower_bound"],
        "ent.cut_evals": cut_evals,
        "ent.upper_s": total["ent.ree_upper_bound"],
        "ent.fw_iterations": fw_iterations,
        "ent.fw_converged_frac": fw_converged / upper_calls if upper_calls else 0.0,
        "ent.energy_witness_s": total["ent.energy_witness"],
        "gas.state_s": total["gas.gas_state"],
        "gas.solve_mu_s": total["gas.solve_mu"],
        "gas.solve_mu_calls": solves,
        "gas.occupation_per_solve": occupations_in_solve / solves if solves else 0.0,
        "gas.fit_s": total["gas.fit_entropy_scaling"],
    }
