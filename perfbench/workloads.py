"""The benchmark's workloads: configs drawn from a seed, and report checks.

Each workload fixes the lattice size, the component slopes and the trial
count, so its cost does not move with the seed.  The seed draws only the
frequencies, the process parameters and the snapshot seeds.  Every report is
checked against expectations computed here, from the paper's closed form,
never from `evarank.rank.predict_rank`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from evarank.covariance import load_matrix_binary

MAX_CERT_RESIDUAL = 1e-10
MIN_SUPPRESSION_DB = 40.0
STOCK_GRID_SUMMARY = "SUMMARY,pass=131,cells=131,flagged=0"
HERMITIAN_RTOL = 1e-12


def formula_rank(n: int, m: int, slopes, real_valued: bool = False) -> int:
    """min(NM, N*sum|a| + M*sum|b| - sum|a|*sum|b|) for N x M and slopes (a, b).

    The real-valued model splits each component into carriers at +omega and
    -omega, which doubles both slope sums.
    """
    sum_a = sum(abs(a) for a, _ in slopes)
    sum_b = sum(abs(b) for _, b in slopes)
    if real_valued:
        sum_a, sum_b = 2 * sum_a, 2 * sum_b
    return min(n * m, n * sum_a + m * sum_b - sum_a * sum_b)


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a round.

    `label` names the verb's own timing (rank_s, grid_s, ...);
    `role` names the end-to-end metric it feeds (verdict_s or companion_s).
    `make_config(rng)` draws the config; `check(cfg, code, stdout)`
    returns the failed checks of one invocation, empty when it passed.
    """

    label: str
    role: str
    verb: str
    make_config: Callable[[random.Random], dict]
    check: Callable[[dict, int, str], list[str]]
    out_name: str | None = None


def _omega(rng: random.Random) -> float:
    # Away from 0 and pi, where the real-valued model's carriers collide.
    return rng.choice((rng.uniform(0.5, 2.6), rng.uniform(3.7, 5.8)))


def _process(rng: random.Random, kind: str) -> dict:
    proc = {"kind": kind, "variance": rng.uniform(0.5, 2.0)}
    if kind == "ar1":
        proc["ar_coefficient"] = rng.uniform(0.3, 0.7)
    return proc


def _components(rng: random.Random, slopes, kinds) -> list[dict]:
    return [
        {"a": a, "b": b, "omega": _omega(rng), "process": _process(rng, kind)}
        for (a, b), kind in zip(slopes, kinds)
    ]


def _slopes(cfg: dict) -> list[tuple[int, int]]:
    return [(c["a"], c["b"]) for c in cfg["components"]]


def _json_report(code: int, stdout: str, failures: list[str]) -> dict | None:
    if code != 0:
        failures.append(f"exit code {code}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        failures.append("stdout is not one JSON report")
        return None


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what} = {got!r}, expected {want!r}")


# --- oracle_large: the dense O((NM)^3) rank oracle at 48 x 48 -------------

ORACLE_N = 48
ORACLE_SLOPES = ((3, 2), (2, 1))


def _rank_config(real_valued: bool) -> Callable[[random.Random], dict]:
    def make(rng: random.Random) -> dict:
        return {
            "rect": {"N": ORACLE_N, "M": ORACLE_N},
            "components": _components(rng, ORACLE_SLOPES, ("ar1", "white")),
            "real_valued": real_valued,
            "seed": rng.randrange(1 << 30),
        }

    return make


def check_rank(cfg: dict, code: int, stdout: str) -> list[str]:
    failures: list[str] = []
    report = _json_report(code, stdout, failures)
    if report is not None:
        rect = cfg["rect"]
        want = formula_rank(rect["N"], rect["M"], _slopes(cfg), cfg["real_valued"])
        _expect(failures, "prediction", report.get("prediction"), want)
        _expect(failures, "numerical_rank", report.get("numerical_rank"), want)
    return failures


# --- audit_small: certificate audit beside the stock grid sweep -----------

AUDIT_N = 32
AUDIT_SLOPES = ((3, 2), (2, 1), (1, 3), (1, -2))


def _verify_config(rng: random.Random) -> dict:
    kinds = ("ar1", "white", "ar1", "white")
    return {
        "rect": {"N": AUDIT_N, "M": AUDIT_N},
        "components": _components(rng, AUDIT_SLOPES, kinds),
        "seed": rng.randrange(1 << 30),
    }


def check_verify(cfg: dict, code: int, stdout: str) -> list[str]:
    failures: list[str] = []
    report = _json_report(code, stdout, failures)
    if report is not None:
        rect = cfg["rect"]
        dependent = rect["N"] * rect["M"] - formula_rank(rect["N"], rect["M"], _slopes(cfg))
        _expect(failures, "pass", report.get("pass"), True)
        _expect(failures, "points_audited", report.get("points_audited"), dependent)
        residual = report.get("max_residual")
        if not (isinstance(residual, float) and residual <= MAX_CERT_RESIDUAL):
            failures.append(f"max_residual = {residual!r}, expected <= {MAX_CERT_RESIDUAL}")
    return failures


def _grid_config(rng: random.Random) -> dict:
    return {"seed": rng.randrange(1 << 30)}


def check_grid(cfg: dict, code: int, stdout: str) -> list[str]:
    failures: list[str] = []
    if code != 0:
        failures.append(f"exit code {code}")
    lines = stdout.splitlines()
    _expect(failures, "summary line", lines[-1] if lines else "", STOCK_GRID_SUMMARY)
    return failures


# --- stap_mc: snapshot synthesis, sample covariance, subspace projection ---

STAP_N = 32
STAP_TRIALS = 512
JAMMER_POWER = 1e6  # 60 dB over unit noise
SIM_SLOPES = ((3, 2), (2, 1))


def _stap_config(rng: random.Random) -> dict:
    first = rng.uniform(0.3, 2.8)
    jammers = [first, first + rng.uniform(0.5, 3.0)]
    return {
        "scenario": {
            "antennas": STAP_N,
            "pulses": STAP_N,
            "jammers": [{"angle_freq": f, "power": JAMMER_POWER} for f in jammers],
            "clutter": {
                "slope": 1,
                "power": rng.uniform(1e2, 1e3),
                "ridge_freq": rng.uniform(0.0, 2 * math.pi),
            },
            "noise_power": 1.0,
        },
        "trials": STAP_TRIALS,
        "seed": rng.randrange(1 << 30),
    }


def stap_slopes(scenario: dict) -> list[tuple[int, int]]:
    """Jammers are vertical (0, 1) components; the clutter ridge is (1, beta)."""
    slopes = [(0, 1)] * len(scenario["jammers"])
    if scenario.get("clutter") is not None:
        slopes.append((1, scenario["clutter"]["slope"]))
    return slopes


def check_stap(cfg: dict, code: int, stdout: str) -> list[str]:
    failures: list[str] = []
    report = _json_report(code, stdout, failures)
    if report is not None:
        sc = cfg["scenario"]
        want = formula_rank(sc["antennas"], sc["pulses"], stap_slopes(sc))
        _expect(failures, "predicted_rank", report.get("predicted_rank"), want)
        db = report.get("suppression_db")
        if not (isinstance(db, float) and db >= MIN_SUPPRESSION_DB):
            failures.append(f"suppression_db = {db!r}, expected >= {MIN_SUPPRESSION_DB}")
    return failures


def _simulate_config(rng: random.Random) -> dict:
    return {
        "rect": {"N": STAP_N, "M": STAP_N},
        "components": _components(rng, SIM_SLOPES, ("ar1", "white")),
        "trials": STAP_TRIALS,
        "seed": rng.randrange(1 << 30),
    }


def check_simulate(cfg: dict, code: int, stdout: str) -> list[str]:
    failures: list[str] = []
    report = _json_report(code, stdout, failures)
    if report is None:
        return failures
    rect = cfg["rect"]
    size = rect["N"] * rect["M"]
    _expect(failures, "sample_rank", report.get("sample_rank"), report.get("expected_sample_rank"))
    _expect(failures, "exact_rank", report.get("exact_rank"),
            formula_rank(rect["N"], rect["M"], _slopes(cfg)))
    path = report.get("matrix_path")
    try:
        matrix = load_matrix_binary(path)
    except (OSError, TypeError, ValueError) as exc:
        failures.append(f"cannot load the exported matrix {path!r}: {exc}")
        return failures
    if matrix.shape != (size, size):
        failures.append(f"exported matrix shape {matrix.shape}, expected {(size, size)}")
    elif not np.all(np.isfinite(matrix)):
        failures.append("exported matrix has non-finite entries")
    else:
        asym = float(np.max(np.abs(matrix - matrix.conj().T)))
        if asym > HERMITIAN_RTOL * float(np.max(np.abs(matrix))):
            failures.append(f"exported matrix is not Hermitian (max asymmetry {asym:.3g})")
    return failures


# Each workload is (verdict step, companion step); BENCHMARK.json says why
# each was chosen.  The companion also serves as the warm-up invocation.
WORKLOADS = {
    "oracle_large": (
        Step("rank_s", "verdict_s", "rank", _rank_config(False), check_rank),
        Step("rank_real_s", "companion_s", "rank", _rank_config(True), check_rank),
    ),
    "audit_small": (
        Step("verify_s", "verdict_s", "verify", _verify_config, check_verify),
        Step("grid_s", "companion_s", "grid", _grid_config, check_grid),
    ),
    "stap_mc": (
        Step("stap_s", "verdict_s", "stap", _stap_config, check_stap),
        Step("simulate_s", "companion_s", "simulate", _simulate_config, check_simulate,
             out_name="simulate.bin"),
    ),
}
