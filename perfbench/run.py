"""thermwit benchmark: one workload per process, jobs run one after another.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_ed --seed 1 --seconds 28 --trace 0

Each run imports thermwit from ``src/`` of the checkout it sits in, warms up
BLAS, writes the workload's seeded inputs, then repeats passes over the
workload's jobs (a closed loop with one client) until another pass would
exceed ``--seconds``. Every job output is checked; see workloads.py.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, the tracing overhead, and fails any job whose output differs between
the two. The last line of standard output is one JSON object; a full record
with the environment goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep_ed", "certify", "many_small", "gas_modes")

#: Set-ups timed in fresh processes, in addition to the run's own one.
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ProgramMissing(Exception):
    """thermwit's sources are not in this checkout."""


# ---------------------------------------------------------------------------
# set-up: import, BLAS warm-up, input generation
# ---------------------------------------------------------------------------

def import_program():
    src = ROOT / "src"
    package = src / "thermwit"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no thermwit package under {src}")
    sys.path.insert(0, str(src))
    import thermwit
    import thermwit.cli
    import thermwit.gas
    import thermwit.models

    if Path(thermwit.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"thermwit was imported from {thermwit.__file__}, not {package}")
    return thermwit


def warm_up_blas(np) -> None:
    """First LAPACK calls can stall for most of a second while OpenBLAS
    starts its threads; pay that here, in set-up."""
    a = np.random.default_rng(0).normal(size=(256, 256))
    a = a + a.T
    np.linalg.eigh(a)
    np.linalg.eigh(a + 1j * np.tril(a, -1) - 1j * np.triu(a, 1))
    a @ a


def setup(workload: str, seed: int, workdir: Path):
    start = perf_counter()
    tw = import_program()
    import numpy as np

    warm_up_blas(np)
    import workloads

    jobs = workloads.build(workload, seed, workdir, tw)
    return perf_counter() - start, jobs


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh process (this script with --setup-probe)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outputs: list[bytes | None] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    span_range: tuple[int, int] = (0, 0)


def run_pass(jobs, tracer: spans.Tracer | None) -> Pass:
    result = Pass(traced=tracer is not None)
    if tracer is not None:
        tracer.install()
        lo = len(tracer.spans)
    try:
        start = perf_counter()
        for i, job in enumerate(jobs):
            with tracer.job_span(i) if tracer is not None else contextlib.nullcontext():
                t = perf_counter()
                try:
                    raw, error = job.call(), None
                except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
                    raw, error = None, f"{type(exc).__name__}: {exc}"
                result.latencies.append(perf_counter() - t)
            result.outputs.append(None if error else job.output(raw))
            result.errors.append(error)
        result.wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            result.span_range = (lo, len(tracer.spans))
    return result


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    problems: dict[str, int] = field(default_factory=dict)
    first_digest: dict[int, bytes] = field(default_factory=dict)
    checked: dict[tuple[int, bytes], list[str]] = field(default_factory=dict)

    @property
    def incorrect(self) -> int:
        return self.failed - self.known_defect

    def record(self, jobs, p: Pass) -> None:
        """Check every job of a pass. An output must pass its job's check and
        be byte-identical to the job's output in the first pass."""
        for i, job in enumerate(jobs):
            self.attempted += 1
            issues = self._issues(i, job, p.outputs[i], p.errors[i])
            if issues is None:
                self.failed += 1
                self.known_defect += 1
            elif issues:
                self.failed += 1
                for issue in issues:
                    key = f"{job.label}: {issue}"
                    self.problems[key] = self.problems.get(key, 0) + 1

    def _issues(self, i: int, job, output: bytes | None, error: str | None):
        """Problems with one job result; None for the known program defect."""
        if error is not None:
            if job.known_failure and job.known_failure in error:
                return None
            return [error]
        digest = hashlib.blake2b(output, digest_size=16).digest()
        issues = []
        if self.first_digest.setdefault(i, digest) != digest:
            issues.append("output differs from the first pass")
        if (i, digest) not in self.checked:
            self.checked[(i, digest)] = job.check(output)
        return issues + self.checked[(i, digest)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads(np) -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measure until another pass would exceed this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args, workdir: Path) -> int:
    setup_local, jobs = setup(args.workload, args.seed, workdir)
    setup_times = [setup_local] + [probe_setup(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer() if args.trace else None

    passes: list[Pass] = []
    verdicts = Verdicts()
    rss = None
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(jobs, tracer if traced else None))
        if rss is None:
            rss = peak_rss_mb()  # before any check allocates
        verdicts.record(jobs, passes[-1])
        walls = [p.wall for p in passes]
        if tracer is not None and len(passes) < 2:
            continue
        if sum(walls) + statistics.median(walls) > args.seconds:
            break

    latencies = [t for p in passes for t in p.latencies]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": p90(latencies),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    else:
        metrics = traced_metrics(tracer, jobs, passes)
        units = spans.LAYER_UNITS

    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "jobs_per_pass": len(jobs),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "job_latencies_s": p.latencies}
                   for p in passes],
        "setup_s_samples": setup_times,
        "job_latencies": len(latencies),
        "metrics": metrics,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "failed_known_defect": verdicts.known_defect,
        "problems": verdicts.problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_csv(OUT_DIR / f"{stem}-spans.csv", pass_index(passes))

    print_summary(args, env, jobs, passes, metrics, units, setup_times, latencies, verdicts)
    print(json.dumps({
        "correct": verdicts.incorrect == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(tracer: spans.Tracer, jobs, passes: list[Pass]) -> dict[str, float]:
    per_pass = [
        spans.layer_metrics(
            tracer.spans, *p.span_range,
            out_bytes=sum(len(o) for o, job in zip(p.outputs, jobs) if job.cli and o),
        )
        for p in passes if p.traced
    ]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced = statistics.median(p.wall for p in passes if p.traced)
    plain = statistics.median(p.wall for p in passes if not p.traced)
    metrics["trace_overhead_frac"] = traced / plain - 1.0
    return metrics


def pass_index(passes: list[Pass]):
    ranges = [(i, p.span_range) for i, p in enumerate(passes) if p.traced]
    return lambda span: next(i for i, (lo, hi) in ranges if lo <= span < hi)


def print_summary(args, env, jobs, passes, metrics, units, setup_times, latencies, verdicts):
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    walls = ", ".join(f"{p.wall:.3f}{'T' if p.traced else ''}" for p in passes)
    print(f"passes: {len(passes)} of {len(jobs)} jobs (wall s: {walls})")
    notes = {
        "wall_s": f"median of {len(passes)} passes",
        "job_p50_s": f"{len(latencies)} job latencies",
        "job_p90_s": f"{len(latencies)} job latencies",
        "peak_rss_mb": "high-water mark after the first pass",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    fail_frac = verdicts.failed / verdicts.attempted
    print(f"  {'fail_frac':26s} {fail_frac:14.6g} {'ratio':6s} "
          f"{verdicts.failed} of {verdicts.attempted} jobs failed, "
          f"{verdicts.known_defect} by the known solve_mu defect")
    print(f"checks: {'PASS' if verdicts.incorrect == 0 else 'FAIL'} "
          f"({verdicts.attempted - verdicts.failed} outputs passed their checks)")
    for problem, count in list(verdicts.problems.items())[:20]:
        print(f"  FAIL x{count}: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.setup_probe:
            elapsed, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        return run(args, workdir)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


if __name__ == "__main__":
    sys.exit(main())
