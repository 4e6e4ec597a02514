"""End-to-end benchmark of the evarank CLI, with an outside-in layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle_large --seed 1 --seconds 35 --trace 0

The program is imported from `src/` and driven in-process through
`evarank.cli.main(argv)` with JSON configs drawn from `--seed`.  A run sets
up (import, configs, one untimed warm-up invocation), then repeats rounds
(one invocation of each of the workload's verbs) for `--seconds`.  Round 1
repeats round 0's configs, and its stdout must match byte for byte.  Every
report is checked; the last stdout line is one JSON object with the result.

`--trace 0` reports the end-to-end metrics, measured without tracing.
`--trace 1` alternates untraced and traced rounds and reports the per-layer
metrics as totals per traced round, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median with this run's own
CONFIGS_PER_STEP = 16
SUBPROCESS_TIMEOUT_S = 150


def import_program():
    """Imports evarank from this checkout's src/, never from anywhere else."""
    if not (SRC / "evarank" / "cli.py").is_file():
        raise SystemExit(f"evarank sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import evarank.cli

    if Path(evarank.__file__).resolve().parent != SRC / "evarank":
        raise SystemExit(f"imported evarank from {evarank.__file__}, not from {SRC}")
    return evarank.cli


class Session:
    """Generated configs and the invocations made from them, in one work dir."""

    def __init__(self, workload_name: str, seed: int, work: Path):
        self.cli = import_program()
        import workloads

        self.steps = workloads.WORKLOADS[workload_name]
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.first_stdout: dict[tuple[int, int], str] = {}
        self.configs = []
        for i, step in enumerate(self.steps):
            per_step = []
            for k in range(CONFIGS_PER_STEP):
                cfg = step.make_config(random.Random(f"{workload_name}/{seed}/{i}/{k}"))
                path = work / f"{step.verb}-{i}-{k}.json"
                path.write_text(json.dumps(cfg), encoding="utf-8")
                per_step.append((cfg, str(path)))
            self.configs.append(per_step)

    def invoke(self, i: int, k: int, note=None) -> float:
        """Runs step i on config k; returns its wall time and records any failure.

        `note(stdout)` sees the report of a traced invocation.
        """
        step = self.steps[i]
        k %= CONFIGS_PER_STEP
        cfg, path = self.configs[i][k]
        argv = [step.verb, "--config", path]
        if step.out_name:
            argv += ["--out", str(self.work / step.out_name)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            raised = None
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped error fails this invocation only
                code, raised = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        if note is not None:
            note(stdout)
        problems = [raised] if raised else step.check(cfg, code, stdout)
        if err.getvalue():
            problems.append(f"stderr: {err.getvalue().strip()[:200]}")
        first = self.first_stdout.setdefault((i, k), stdout)
        if first != stdout:
            problems.append("stdout differs from an earlier run of the same config and seed")
        self.attempted += 1
        if problems:
            self.failures.append(f"{step.label} config {k}: " + "; ".join(problems))
        return elapsed

    def round(self, k: int, note=None) -> dict[str, float]:
        return {step.label: self.invoke(i, k, note) for i, step in enumerate(self.steps)}


def set_up(workload_name: str, seed: int, work: Path) -> tuple[Session, float]:
    """Import, config generation and one untimed warm-up invocation, timed together.

    The warm-up runs the companion verb: it is the cheaper one, and in
    audit_small the only one that reaches BLAS.
    """
    start = time.perf_counter()
    session = Session(workload_name, seed, work)
    session.invoke(1, 0)
    return session, time.perf_counter() - start


def probe_setups(args) -> tuple[list[float], list[str]]:
    """Times SETUP_PROBES set-ups, each in a fresh process, one after another.

    Returns the set-up times and the failed checks of the probes' warm-ups.
    """
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"])
        failures.extend(f"set-up probe: {f}" for f in probe["failures"])
    return times, failures


def rounds(seconds: float, min_rounds: int, run_round) -> int:
    """Runs rounds until the next would end after `seconds`; at least `min_rounds`.

    Round r uses config max(r - 1, 0), so round 1 repeats round 0.
    """
    start = time.perf_counter()
    r = 0
    while True:
        run_round(max(r - 1, 0))
        r += 1
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed * (r + 1) / r > seconds:
            return r


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its own API."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def measure(args, session: Session, setup_times: list[float]) -> dict:
    """Untraced rounds: the end-to-end metrics."""
    samples: dict[str, list[float]] = {s.label: [] for s in session.steps}

    def run_round(k):
        for label, elapsed in session.round(k).items():
            samples[label].append(elapsed)

    rounds(args.seconds, 3, run_round)
    metrics = {"setup_s": statistics.median(setup_times)}
    print(f"# setup_s {metrics['setup_s']:.4f} s  samples={setup_times}")
    for step in session.steps:
        q1, med, q3 = statistics.quantiles(samples[step.label], n=4, method="inclusive")
        metrics[step.role] = med
        print(f"# {step.label} ({step.role}) median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n={len(samples[step.label])}")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"setup_s": "s", "verdict_s": "s", "companion_s": "s", "peak_rss_mb": "MB"}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, by nearest rank.

    With fewer than 20 samples no percentile above the median qualifies, and
    the median is returned as p50.
    """
    n = len(values)
    if n < 20:
        return 50, statistics.median(values) if values else 0.0
    pct = int(100 * (1 - 10 / n))
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def measure_traced(args, session: Session) -> dict:
    """Alternates untraced and traced rounds on the same configs: the per-layer metrics."""
    from layertrace import Tracer

    tracer = Tracer()
    ratios: list[float] = []

    def note(stdout):
        tracer.count("cli.report_bytes", len(stdout.encode()))

    def run_pair(k):
        # Alternate which side runs first, so neither always follows a cold one.
        def traced_round():
            with tracer:
                return sum(session.round(k, note).values())

        if len(ratios) % 2:
            t = traced_round()
            ratios.append(t / sum(session.round(k).values()))
        else:
            p = sum(session.round(k).values())
            ratios.append(traced_round() / p)

    pairs = rounds(args.seconds, 2, run_pair)
    per = 1.0 / pairs
    c = tracer.counters
    n_rank = tracer.durations("rank.numerical_rank")
    tail_pct, tail_s = tail(n_rank)
    tuples = c.get("rank.shift_tuples_tried", 0)
    values = {
        "cli.self_s": tracer.self_time("cli") * per,
        "cli.report_bytes": c.get("cli.report_bytes", 0) * per,
        "covariance.assemble_gamma.s": tracer.total("covariance.assemble_gamma") * per,
        "covariance.assemble_gamma.calls": len(tracer.durations("covariance.assemble_gamma")) * per,
        "covariance.gamma_bytes": c.get("covariance.gamma_bytes", 0) * per,
        "covariance.factor_rows": c.get("covariance.factor_rows", 0) * per,
        "covariance.factorization_residual.s":
            tracer.total("covariance.factorization_residual") * per,
        "covariance.sample_covariance.s": tracer.total("covariance.sample_covariance") * per,
        "covariance.save_matrix_binary.s": tracer.total("covariance.save_matrix_binary") * per,
        "covariance.bytes_written": c.get("covariance.bytes_written", 0) * per,
        "rank.numerical_rank.s": sum(n_rank) * per,
        "rank.numerical_rank.calls": len(n_rank) * per,
        "rank.numerical_rank.p50_s": statistics.median(n_rank) if n_rank else 0.0,
        "rank.numerical_rank.tail_s": tail_s,
        "rank.numerical_rank.n3": c.get("rank.numerical_rank.n3", 0) * per,
        "rank.find_certificate.s": tracer.total("rank.find_certificate") * per,
        "rank.find_certificate.calls": len(tracer.durations("rank.find_certificate")) * per,
        "rank.shift_tuples_tried": tuples * per,
        "rank.certificates_made": c.get("rank.certificates_made", 0) * per,
        "rank.certificate_yield": c.get("rank.certificates_found", 0) / tuples if tuples else 0.0,
        "rank.verify_certificate.s": tracer.total("rank.verify_certificate") * per,
        "rank.predict_rank.s": tracer.total("rank.predict_rank") * per,
        "fields.synthesize_batch.s": tracer.total("fields.synthesize_batch") * per,
        "fields.snapshot_bytes": c.get("fields.snapshot_bytes", 0) * per,
        "stap.dominant_projection.s": tracer.total("stap.dominant_projection") * per,
        "stap.suppression_experiment.self_s":
            tracer.self_time("stap.suppression_experiment") * per,
        "trace.overhead_ratio": statistics.median(ratios),
    }
    print(f"# traced rounds {pairs}, spans {len(tracer.spans)}; "
          f"rank.numerical_rank.tail_s is p{tail_pct} of {len(n_rank)} calls")
    units = per_layer_units()
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle_large", "audit_small", "stap_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evarank").is_dir():
        print(f"evarank sources not found under {SRC}", file=sys.stderr)
        return 2
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    try:
        setup_times, probe_failures = (
            ([], []) if args.setup_probe or args.trace else probe_setups(args))
        session, setup_s = set_up(args.workload, args.seed, work)
        session.attempted += len(setup_times)
        session.failures += probe_failures
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "failures": session.failures}))
            return 0
        setup_times.append(setup_s)
        print(f"# machine {json.dumps(machine(), sort_keys=True)}")
        if args.trace:
            metrics = measure_traced(args, session)
        else:
            metrics = measure(args, session, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in session.failures:
        print(f"# FAILED {failure}")
    failed = len(session.failures)
    print(f"# failed_ratio {failed / session.attempted:.4f} ({failed} of {session.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
