"""Command-line front end: rank checks, certificate audits, simulations.

Verbs:
    rank      predict the covariance rank and confront it with the numerical rank
    verify    audit dependence certificates over the dependent point block
    simulate  draw snapshots, compare sample covariance to the exact one
    stap      run a jammer/clutter projection experiment
    grid      sweep lattice sizes and component sets, emit a CSV

The verbs that draw (simulate, stap) take all randomness from an explicit
seed in the config or --seed; there is no wall-clock default, so identical
config plus seed reproduces output byte for byte.  Errors print a
single-line JSON diagnostic to stderr.
Exit codes: 0 pass, 1 disagreement, 2 bad config or out of memory,
3 regime-flagged only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import types
from dataclasses import dataclass

import numpy as np

from .covariance import (
    assemble_gamma,
    sample_covariance,
    save_matrix_binary,
    save_matrix_csv,
)
from .fields import (
    TWO_PI,
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    conjugate_pairs,
    synthesize_batch,
)
from .lattice import LatticeRect, make_slope_pair
from .rank import (
    dependent_point_set,
    factor_rank,
    find_certificate,
    gamma_rank,
    make_certificate,  # noqa: F401  uncalled; perfbench's tracer finds it here (ROADMAP item 1)
    predict_rank,
    spectral_gap_ratio,
    verify_certificate,
)
from .stap import ClutterRidgeSpec, JammerSpec, StapScenario, TargetSpec, suppression_experiment

EXIT_PASS = 0
EXIT_DISAGREE = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3

CERT_RESIDUAL_TOL = 1e-10


class ConfigError(Exception):
    pass


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")


def _save(save, payload, path: str) -> None:
    """save(payload, path); a path that cannot be written is a config error."""
    try:
        save(payload, path)
    except OSError as exc:  # a directory, a missing parent, no permission, ...
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from exc


def _save_text(text: str, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _publish(text: str, out_path: str | None) -> None:
    """Writes the report to --out, when given, and then to stdout."""
    if out_path:
        _save(_save_text, text, out_path)
    sys.stdout.write(text)


def _emit(report: dict, out_path: str | None) -> None:
    _publish(json.dumps(report, sort_keys=True, allow_nan=False) + "\n", out_path)


# ---------------------------------------------------------------------------
# config reading

REQUIRED = object()


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply to parse") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _is(value, kind) -> bool:
    if isinstance(kind, types.GenericAlias):  # list[item]
        return isinstance(value, list) and all(_is(item, kind.__args__[0]) for item in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _field(obj: dict, key: str, kind, where: str, default=REQUIRED):
    """obj[key] checked against the JSON type `kind`; `default` when the key
    is absent or null.  An int is a valid float, a bool is never a number."""
    value = obj.get(key)
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"missing '{key}' in {where}")
        return default
    if not _is(value, kind):
        name = kind.__name__ if isinstance(kind, type) else kind
        raise ConfigError(f"'{key}' in {where} must be {name}")
    return float(value) if kind is float else value


def _build(cls, obj: dict | None, where: str, table):
    """cls(*values) read from obj by the (key, type, default) rows of
    `table`, in constructor order; None when an optional object is absent.
    Range rules live in the constructor; a ValueError there becomes a
    config error naming `where`."""
    if obj is None:
        return None
    values = [_field(obj, key, kind, where, default) for key, kind, default in table]
    try:
        return cls(*values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_RECT = (("N", int, REQUIRED), ("M", int, REQUIRED))
_PROCESS = (("kind", str, "white"), ("variance", float, 1.0), ("ar_coefficient", float, 0.0))
_COMPONENT = (("a", int, REQUIRED), ("b", int, REQUIRED), ("omega", float, REQUIRED))
_JAMMER = (("angle_freq", float, REQUIRED), ("power", float, REQUIRED))
_CLUTTER = (("slope", int, REQUIRED), ("power", float, REQUIRED), ("kind", str, "white"),
            ("ar_coefficient", float, 0.0), ("ridge_freq", float, 0.0))
_TARGET = (("angle_freq", float, REQUIRED), ("doppler_freq", float, REQUIRED),
           ("amplitude", float, REQUIRED))
_SCENARIO = (("antennas", int, REQUIRED), ("pulses", int, REQUIRED),
             ("noise_power", float, REQUIRED))
_SETTINGS = (("seed", int, None), ("trials", int, 64), ("real_valued", bool, False))


@dataclass(frozen=True)
class RunSettings:
    """The top-level keys the verbs share, with the command-line flags merged in."""

    seed: int | None
    trials: int
    real_valued: bool

    def require_seed(self) -> int:
        """The seed, checked here because only the verbs that draw read it."""
        if self.seed is None:
            raise ConfigError("an explicit seed is required (config 'seed' or --seed)")
        if self.seed < 0:
            raise ConfigError("config: seed must be a non-negative integer")
        return self.seed


def parse_rect(cfg: dict) -> LatticeRect:
    return _build(LatticeRect, _field(cfg, "rect", dict, "config"), "rect", _RECT)


def parse_component(obj: dict, where: str) -> EvanescentComponent:
    process_obj = _field(obj, "process", dict, where, {})
    process = _build(ModulatingProcessSpec, process_obj, f"{where}.process", _PROCESS)
    return _build(
        lambda a, b, omega: EvanescentComponent(make_slope_pair(a, b), omega, process),
        obj, where, _COMPONENT,
    )


def parse_components(cfg: dict) -> list[EvanescentComponent]:
    raw = _field(cfg, "components", list[dict], "config")
    return [parse_component(obj, f"components[{i}]") for i, obj in enumerate(raw)]


def parse_scenario(cfg: dict) -> tuple[StapScenario, int | None]:
    obj = _field(cfg, "scenario", dict, "config")
    jammers = tuple(
        _build(JammerSpec, jam, f"jammers[{i}]", _JAMMER)
        for i, jam in enumerate(_field(obj, "jammers", list[dict], "scenario", []))
    )
    clutter = _build(
        ClutterRidgeSpec, _field(obj, "clutter", dict, "scenario", None), "clutter", _CLUTTER
    )
    target = _build(TargetSpec, _field(obj, "target", dict, "scenario", None), "target", _TARGET)
    scenario = _build(
        lambda antennas, pulses, noise_power: StapScenario(
            LatticeRect(antennas, pulses), jammers, clutter, noise_power, target
        ),
        obj, "scenario", _SCENARIO,
    )
    return scenario, _field(obj, "rank_used", int, "scenario", None)


# ---------------------------------------------------------------------------
# verbs


def _rank_core(comps, rect: LatticeRect, real_valued: bool, rel_tol: float | None):
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    prediction = predict_rank(comps, rect, real_valued=real_valued)
    rank, spectrum = gamma_rank(model, rel_tol=rel_tol)
    return model, prediction, rank, spectrum


def cmd_rank(cfg: dict, run: RunSettings, args) -> int:
    rect = parse_rect(cfg)
    comps = parse_components(cfg)
    model, prediction, rank, spectrum = _rank_core(
        comps, rect, run.real_valued, args.tolerance
    )
    agree = rank == prediction.formula_value
    gap = spectral_gap_ratio(spectrum, rank)
    report = {
        "mode": "rank",
        "N": rect.N,
        "M": rect.M,
        "real_valued": run.real_valued,
        "prediction": prediction.formula_value,
        "per_component_counts": list(prediction.per_component_counts),
        "regime_flag": prediction.regime_flag.value,
        "numerical_rank": rank,
        "agree": agree,
        "spectrum": [float(s) for s in spectrum],
        "gap_ratio": gap if gap is not None and math.isfinite(gap) else None,
        "factorization_residual": model.factorization_residual(),
    }
    _emit(report, args.out)
    if not prediction.trustworthy:
        return EXIT_REGIME
    return EXIT_PASS if agree else EXIT_DISAGREE


def cmd_verify(cfg: dict, run: RunSettings, args) -> int:
    rect = parse_rect(cfg)
    comps = parse_components(cfg)
    if not comps:
        raise ConfigError("verify needs at least one component")
    model = assemble_gamma(comps, rect, real_valued=run.real_valued)
    if run.real_valued:
        # the real model's certificates are those of its conjugate-pair set
        comps = conjugate_pairs(comps)
    # a single column cannot depend on anything; no regime applies
    ranges = (range(0), range(0))
    if rect.size > 1:
        try:
            ranges = dependent_point_set(comps, rect)
        except ValueError as exc:
            _diagnostic("regime", str(exc))
            return EXIT_REGIME
    targets = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 2)

    tol = args.tolerance if args.tolerance is not None else CERT_RESIDUAL_TOL
    residuals = np.zeros(0)
    failures = []
    if len(targets):
        # every block point admits the canonical certificate, the same one up to
        # translation, so it is built once and its translates read in one pass
        cert = find_certificate(tuple(targets[0].tolist()), comps, rect)
        shifts = list(cert.shifts)
        # rank <= N*M - |block| by induction needs every term strictly earlier in
        # the (m, -n) order; translation keeps the order, so one check covers all
        late = [p for p, _ in cert.terms if (p[1], -p[0]) >= (cert.target[1], -cert.target[0])]
        if late:
            failures.append({"point": list(cert.target), "kind": "order", "term": list(late[0]),
                             "shifts": shifts, "residual": None})
        residuals = verify_certificate(cert, model, at=targets)
        failures += [{"point": targets[i].tolist(), "kind": "residual", "shifts": shifts,
                      "residual": float(residuals[i])} for i in np.flatnonzero(residuals > tol)]
    report = {
        "mode": "verify",
        "N": rect.N,
        "M": rect.M,
        "points_audited": len(targets),
        "max_residual": float(residuals.max(initial=0.0)),
        "tolerance": tol,
        "failures": failures,
        "pass": not failures,
    }
    _emit(report, args.out)
    return EXIT_PASS if not failures else EXIT_DISAGREE


def cmd_simulate(cfg: dict, run: RunSettings, args) -> int:
    seed = run.require_seed()
    rect = parse_rect(cfg)
    comps = parse_components(cfg)
    model = assemble_gamma(comps, rect, real_valued=run.real_valued)
    prediction = predict_rank(comps, rect, real_valued=run.real_valued)
    snapshots = synthesize_batch(model, run.trials, seed)
    estimate = sample_covariance(snapshots)
    exact_rank, _ = gamma_rank(model, rel_tol=args.tolerance)
    # X = snapshots.conj() / sqrt(trials) has X^H X == estimate
    sample_rank, _ = factor_rank(snapshots.conj() / math.sqrt(run.trials), rel_tol=args.tolerance)
    rel_error = model.gap_to(estimate)
    # an --out path ending in .csv or .bin receives the matrix instead of the report
    save = {".csv": save_matrix_csv, ".bin": save_matrix_binary}.get((args.out or "")[-4:])
    if save:
        _save(save, estimate, args.out)
    report = {
        "mode": "simulate",
        "N": rect.N,
        "M": rect.M,
        "seed": seed,
        "trials": run.trials,
        "prediction": prediction.formula_value,
        "regime_flag": prediction.regime_flag.value,
        "exact_rank": exact_rank,
        "sample_rank": sample_rank,
        "expected_sample_rank": min(run.trials, exact_rank),
        "frobenius_rel_error": rel_error,
        "matrix_path": args.out if save else None,
    }
    _emit(report, None if save else args.out)
    return EXIT_PASS


def cmd_stap(cfg: dict, run: RunSettings, args) -> int:
    if run.real_valued:
        raise ConfigError("stap applies to the complex-valued model only")
    seed = run.require_seed()
    scenario, rank_used = parse_scenario(cfg)
    report = suppression_experiment(scenario, trials=run.trials, seed=seed, rank_used=rank_used)
    payload = {"mode": "stap", "antennas": scenario.rect.N, "pulses": scenario.rect.M}
    payload.update(report.to_dict())
    _emit(payload, args.out)
    return EXIT_PASS


_GRID_DIMS = (4, 8, 15, 16)
_GRID_SLOPES = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 2), (3, -2), (2, -1))
_GRID_MULTI = (
    ((3, 2), (2, 1)),
    ((3, 2), (2, -1)),
    ((3, 2), (2, 1), (1, 3)),
)


def _grid_component(slope_ab: tuple[int, int], index: int) -> EvanescentComponent:
    omega = (0.9 + 0.7 * index) % TWO_PI
    process = ModulatingProcessSpec(ProcessKind.AR1, variance=1.0, ar_coefficient=0.55)
    return EvanescentComponent(make_slope_pair(*slope_ab), omega, process)


def default_grid_cells() -> list[tuple[LatticeRect, list[EvanescentComponent]]]:
    """The stock sweep: every dimension pair with each single slope, plus
    the multi-component sets on the 15x15 lattice."""
    cells = []
    for n in _GRID_DIMS:
        for m in _GRID_DIMS:
            rect = LatticeRect(n, m)
            for slope in _GRID_SLOPES:
                cells.append((rect, [_grid_component(slope, 0)]))
    rect = LatticeRect(15, 15)
    for slopes in _GRID_MULTI:
        comps = [_grid_component(s, i) for i, s in enumerate(slopes)]
        cells.append((rect, comps))
    return cells


def _grid_cells_from_config(cfg: dict):
    grid = _field(cfg, "grid", dict, "config", None)
    if grid is None:
        return default_grid_cells()
    dims_n = _field(grid, "N", list[int], "grid", _GRID_DIMS)
    dims_m = _field(grid, "M", list[int], "grid", _GRID_DIMS)
    slopes = _field(grid, "slopes", list[list[int]], "grid", [])
    if any(len(slope) != 2 for slope in slopes):
        raise ConfigError("grid slopes must be [a, b] pairs")
    cells = [
        (LatticeRect(n, m), [_grid_component(slope, 0)])
        for slope in slopes
        for n in dims_n
        for m in dims_m
    ]
    for cell in _field(grid, "cells", list[dict], "grid", []):
        cells.append((parse_rect(cell), parse_components(cell)))
    # an empty sweep is legal: header plus summary, nothing between
    return cells


def _component_label(comps) -> str:
    return "|".join(f"{c.slope.a}:{c.slope.b}:{c.omega:.6g}" for c in comps)


def cmd_grid(cfg: dict, run: RunSettings, args) -> int:
    cells = _grid_cells_from_config(cfg)
    lines = ["N,M,components,real,predicted,numerical,agree,gap_ratio,regime"]
    passed = flagged = disagreements = 0
    for rect, comps in cells:
        prediction, rank, spectrum = _rank_core(comps, rect, run.real_valued, args.tolerance)[1:]
        gap = spectral_gap_ratio(spectrum, rank)
        agree = rank == prediction.formula_value
        if not prediction.trustworthy:
            flagged += 1
        elif agree:
            passed += 1
        else:
            disagreements += 1
        lines.append(
            f"{rect.N},{rect.M},{_component_label(comps)},{int(run.real_valued)},"
            f"{prediction.formula_value},{rank},{int(agree and prediction.trustworthy)},"
            f"{'' if gap is None else f'{gap:.6g}'},{prediction.regime_flag.value}"
        )
    lines.append(f"SUMMARY,pass={passed},cells={len(cells)},flagged={flagged}")
    _publish("\n".join(lines) + "\n", args.out)
    if disagreements:
        return EXIT_DISAGREE
    if flagged and not passed:
        return EXIT_REGIME
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry


_FLAGS = {
    "--seed": {"type": int, "help": "override the config seed"},
    "--trials": {"type": int, "help": "override the config snapshot count"},
    "--real": {"action": "store_const", "const": True, "dest": "real_valued",
               "help": "use the real-valued field model"},
    "--tolerance": {"type": float,
                    "help": "relative tolerance (singular-value cut or certificate residual)"},
}

# verb -> (handler, help, the flags it reads besides --config and --out)
_VERBS = {
    "rank": (cmd_rank, "predict covariance rank and check it numerically",
             ("--real", "--tolerance")),
    "verify": (cmd_verify, "audit dependence certificates on the dependent block",
               ("--real", "--tolerance")),
    "simulate": (cmd_simulate, "compare sample covariance against the exact one",
                 ("--seed", "--trials", "--real", "--tolerance")),
    "stap": (cmd_stap, "run a jammer/clutter subspace projection experiment",
             ("--seed", "--trials")),
    "grid": (cmd_grid, "sweep lattice sizes and component sets to CSV",
             ("--real", "--tolerance")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evarank",
        description="Low-rank evanescent-field covariance toolkit",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, helptext, flags) in _VERBS.items():
        p = sub.add_parser(mode, help=helptext)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="write the report here as well")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _VERBS[args.mode][0]
    try:
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not 0.0 < tolerance < math.inf:
            raise ConfigError(f"--tolerance must be positive and finite, got {tolerance}")
        cfg = load_config(args.config)
        for key, _, _ in _SETTINGS:  # a flag overrides the key it is named after
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        return handler(cfg, _build(RunSettings, cfg, "config", _SETTINGS), args)
    except ConfigError as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG
    except ValueError as exc:
        _diagnostic("value", str(exc))
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's error names the allocation that failed
        _diagnostic("memory", str(exc) or "out of memory")
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
