"""Command-line front end: rank checks, certificate audits, simulations.

Verbs:
    rank      predict the covariance rank and confront it with the SVD
    verify    audit dependence certificates over the dependent point block
    simulate  draw snapshots, compare sample covariance to the exact one
    stap      run a jammer/clutter projection experiment
    grid      sweep lattice sizes and component sets, emit a CSV

All randomness flows from an explicit seed in the config or --seed; there
is no wall-clock default, so identical config plus seed reproduces output
byte for byte.  Errors print a single-line JSON diagnostic to stderr.
Exit codes: 0 pass, 1 disagreement, 2 bad config, 3 regime-flagged only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .covariance import assemble_gamma, sample_covariance, save_matrix_binary, save_matrix_csv
from .fields import EvanescentComponent, ModulatingProcessSpec, ProcessKind, synthesize_batch
from .lattice import LatticeRect, make_slope_pair
from .rank import (
    RegimeFlag,
    dependent_point_set,
    find_certificate,
    make_certificate,
    numerical_rank,
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
DEFAULT_VERIFY_CAP = 4096


class ConfigError(Exception):
    pass


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


# ---------------------------------------------------------------------------
# config parsing


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, kind, where: str):
    if key not in cfg:
        raise ConfigError(f"missing '{key}' in {where}")
    value = cfg[key]
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"'{key}' in {where} must be an integer")
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"'{key}' in {where} must be {kind.__name__}")
    return value


def parse_rect(cfg: dict) -> LatticeRect:
    rect = _require(cfg, "rect", dict, "config")
    try:
        return LatticeRect(_require(rect, "N", int, "rect"), _require(rect, "M", int, "rect"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_process(obj: dict) -> ModulatingProcessSpec:
    kind_name = str(obj.get("kind", "white")).lower()
    try:
        kind = ProcessKind(kind_name)
    except ValueError as exc:
        raise ConfigError(f"unknown process kind '{kind_name}'") from exc
    try:
        return ModulatingProcessSpec(
            kind=kind,
            variance=float(obj.get("variance", 1.0)),
            ar_coefficient=float(obj.get("ar_coefficient", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_component(obj: dict, index: int) -> EvanescentComponent:
    where = f"components[{index}]"
    a = _require(obj, "a", int, where)
    b = _require(obj, "b", int, where)
    omega = _require(obj, "omega", float, where)
    process_obj = obj.get("process", {})
    if not isinstance(process_obj, dict):
        raise ConfigError(f"'process' in {where} must be an object")
    try:
        slope = make_slope_pair(a, b)
        process = parse_process(process_obj)
        return EvanescentComponent(slope, omega, process)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_components(cfg: dict) -> list[EvanescentComponent]:
    raw = _require(cfg, "components", list, "config")
    comps = []
    for idx, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise ConfigError(f"components[{idx}] must be an object")
        comps.append(parse_component(obj, idx))
    return comps


def parse_scenario(cfg: dict) -> tuple[StapScenario, int | None]:
    obj = _require(cfg, "scenario", dict, "config")
    rect = LatticeRect(
        _require(obj, "antennas", int, "scenario"), _require(obj, "pulses", int, "scenario")
    )
    jammers = []
    for idx, jam in enumerate(obj.get("jammers", [])):
        if not isinstance(jam, dict):
            raise ConfigError(f"jammers[{idx}] must be an object")
        jammers.append(
            JammerSpec(
                _require(jam, "angle_freq", float, f"jammers[{idx}]"),
                _require(jam, "power", float, f"jammers[{idx}]"),
            )
        )
    clutter = None
    if obj.get("clutter") is not None:
        cl = obj["clutter"]
        if not isinstance(cl, dict):
            raise ConfigError("'clutter' must be an object")
        kind_name = str(cl.get("kind", "white")).lower()
        try:
            kind = ProcessKind(kind_name)
        except ValueError as exc:
            raise ConfigError(f"unknown clutter process kind '{kind_name}'") from exc
        clutter = ClutterRidgeSpec(
            slope=_require(cl, "slope", int, "clutter"),
            power=_require(cl, "power", float, "clutter"),
            kind=kind,
            ar_coefficient=float(cl.get("ar_coefficient", 0.0)),
            ridge_freq=float(cl.get("ridge_freq", 0.0)),
        )
    target = None
    if obj.get("target") is not None:
        tg = obj["target"]
        if not isinstance(tg, dict):
            raise ConfigError("'target' must be an object")
        target = TargetSpec(
            angle_freq=_require(tg, "angle_freq", float, "target"),
            doppler_freq=_require(tg, "doppler_freq", float, "target"),
            amplitude=_require(tg, "amplitude", float, "target"),
        )
    rank_used = obj.get("rank_used")
    if rank_used is not None and (isinstance(rank_used, bool) or not isinstance(rank_used, int)):
        raise ConfigError("'rank_used' must be an integer")
    try:
        scenario = StapScenario(
            rect=rect,
            jammers=tuple(jammers),
            clutter=clutter,
            noise_power=_require(obj, "noise_power", float, "scenario"),
            target=target,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario, rank_used


def _resolve_seed(cfg: dict, args, required: bool) -> int | None:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        if required:
            raise ConfigError("an explicit seed is required (config 'seed' or --seed)")
        return None
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    return seed


def _resolve_trials(cfg: dict, args, default: int = 64) -> int:
    trials = args.trials if args.trials is not None else cfg.get("trials", default)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ConfigError("trials must be a positive integer")
    return trials


def _resolve_real(cfg: dict, args) -> bool:
    if args.real:
        return True
    flag = cfg.get("real_valued", False)
    if not isinstance(flag, bool):
        raise ConfigError("'real_valued' must be a boolean")
    return flag


# ---------------------------------------------------------------------------
# verbs


def _rank_core(comps, rect: LatticeRect, real_valued: bool, rel_tol: float | None):
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    prediction = predict_rank(comps, rect, real_valued=real_valued)
    rank, spectrum = numerical_rank(model.gamma, rel_tol=rel_tol)
    return model, prediction, rank, spectrum


def cmd_rank(cfg: dict, args) -> int:
    _resolve_seed(cfg, args, required=False)  # validated although rank draws nothing
    rect = parse_rect(cfg)
    comps = parse_components(cfg)
    real_valued = _resolve_real(cfg, args)
    model, prediction, rank, spectrum = _rank_core(comps, rect, real_valued, args.tolerance)
    agree = rank == prediction.formula_value
    report = {
        "mode": "rank",
        "N": rect.N,
        "M": rect.M,
        "real_valued": real_valued,
        "prediction": prediction.formula_value,
        "clamped": prediction.clamped,
        "per_component_counts": list(prediction.per_component_counts),
        "regime_flag": prediction.regime_flag.value,
        "numerical_rank": rank,
        "agree": agree,
        "spectrum": [float(s) for s in spectrum],
        "gap_ratio": _finite_or_none(spectral_gap_ratio(spectrum, rank)),
        "factorization_residual": model.factorization_residual(),
        "certificates_checked": 0,
        "max_residual": None,
    }
    _emit(report, args.out)
    if prediction.regime_flag is RegimeFlag.OUTSIDE:
        return EXIT_REGIME
    return EXIT_PASS if agree else EXIT_DISAGREE


def cmd_verify(cfg: dict, args) -> int:
    if _resolve_real(cfg, args):
        raise ConfigError("verify applies to the complex-valued model only")
    seed = _resolve_seed(cfg, args, required=False)
    rect = parse_rect(cfg)
    comps = parse_components(cfg)
    if not comps:
        raise ConfigError("verify needs at least one component")
    model = assemble_gamma(comps, rect)
    if rect.size == 1:
        # a single column cannot depend on anything; no regime applies
        points = []
    else:
        try:
            points = dependent_point_set(comps, rect)
        except ValueError as exc:
            _diagnostic("regime", str(exc))
            return EXIT_REGIME
    points_total = len(points)
    cap = cfg.get("max_certificate_points", DEFAULT_VERIFY_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ConfigError("'max_certificate_points' must be a positive integer")
    sampled = False
    if len(points) > cap:
        if seed is None:
            raise ConfigError("sampling the audit set needs an explicit seed")
        rng = np.random.default_rng([seed, 3])
        keep = rng.choice(len(points), size=cap, replace=False)
        points = [points[i] for i in sorted(keep)]
        sampled = True

    tol = args.tolerance if args.tolerance is not None else CERT_RESIDUAL_TOL
    zeros = tuple(0 for _ in comps)
    failures = []
    max_residual = 0.0
    checked = 0
    for point in points:
        trivial = make_certificate(point, zeros, comps, rect)
        trivial_residual = verify_certificate(trivial, model)
        checked += 1
        if trivial_residual != 0.0:
            failures.append({"point": list(point), "kind": "trivial", "residual": trivial_residual})
        cert = find_certificate(point, comps, rect)
        if cert is None:
            failures.append({"point": list(point), "kind": "missing", "residual": None})
            continue
        residual = verify_certificate(cert, model)
        checked += 1
        max_residual = max(max_residual, residual)
        if residual > tol:
            failures.append(
                {
                    "point": list(point),
                    "kind": "residual",
                    "shifts": list(cert.shifts),
                    "residual": residual,
                }
            )
    report = {
        "mode": "verify",
        "N": rect.N,
        "M": rect.M,
        "points_total": points_total,
        "points_audited": len(points),
        "sampled": sampled,
        "certificates_checked": checked,
        "max_residual": max_residual,
        "tolerance": tol,
        "failures": failures,
        "pass": not failures,
    }
    _emit(report, args.out)
    return EXIT_PASS if not failures else EXIT_DISAGREE


def cmd_simulate(cfg: dict, args) -> int:
    seed = _resolve_seed(cfg, args, required=True)
    rect = parse_rect(cfg)
    comps = parse_components(cfg)
    trials = _resolve_trials(cfg, args)
    real_valued = _resolve_real(cfg, args)
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    prediction = predict_rank(comps, rect, real_valued=real_valued)
    snapshots = synthesize_batch(comps, rect, trials, seed, real_valued=real_valued)
    estimate = sample_covariance(snapshots)
    exact_rank, _ = numerical_rank(model.gamma, rel_tol=args.tolerance)
    sample_rank, _ = numerical_rank(estimate, rel_tol=args.tolerance)
    rel_error = float(
        np.linalg.norm(estimate - model.gamma) / max(np.linalg.norm(model.gamma), 1e-300)
    )
    matrix_path = None
    report_path = args.out
    if args.out and args.out.endswith(".csv"):
        save_matrix_csv(estimate, args.out)
        matrix_path, report_path = args.out, None
    elif args.out and args.out.endswith(".bin"):
        save_matrix_binary(estimate, args.out)
        matrix_path, report_path = args.out, None
    report = {
        "mode": "simulate",
        "N": rect.N,
        "M": rect.M,
        "seed": seed,
        "trials": trials,
        "prediction": prediction.formula_value,
        "regime_flag": prediction.regime_flag.value,
        "exact_rank": exact_rank,
        "sample_rank": sample_rank,
        "expected_sample_rank": min(trials, exact_rank),
        "frobenius_rel_error": rel_error,
        "matrix_path": matrix_path,
    }
    _emit(report, report_path)
    return EXIT_PASS


def cmd_stap(cfg: dict, args) -> int:
    if _resolve_real(cfg, args):
        raise ConfigError("stap applies to the complex-valued model only")
    seed = _resolve_seed(cfg, args, required=True)
    scenario, rank_used = parse_scenario(cfg)
    trials = _resolve_trials(cfg, args)
    report = suppression_experiment(scenario, trials=trials, seed=seed, rank_used=rank_used)
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
    omega = (0.9 + 0.7 * index) % (2.0 * math.pi)
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
    grid = cfg.get("grid")
    if grid is None:
        return default_grid_cells()
    if not isinstance(grid, dict):
        raise ConfigError("'grid' must be an object")
    cells = []
    dims_n = grid.get("N", list(_GRID_DIMS))
    dims_m = grid.get("M", list(_GRID_DIMS))
    for slope in grid.get("slopes", []):
        if not (isinstance(slope, list) and len(slope) == 2):
            raise ConfigError("grid slopes must be [a, b] pairs")
        for n in dims_n:
            for m in dims_m:
                try:
                    rect = LatticeRect(int(n), int(m))
                    cells.append((rect, [_grid_component((int(slope[0]), int(slope[1])), 0)]))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
    for idx, cell in enumerate(grid.get("cells", [])):
        if not isinstance(cell, dict):
            raise ConfigError(f"grid cells[{idx}] must be an object")
        rect = parse_rect(cell)
        comps = parse_components(cell)
        cells.append((rect, comps))
    # an empty sweep is legal: header plus summary, nothing between
    return cells


def _component_label(comps) -> str:
    return "|".join(f"{c.slope.a}:{c.slope.b}:{c.omega:.6g}" for c in comps)


def cmd_grid(cfg: dict, args) -> int:
    _resolve_seed(cfg, args, required=False)  # validated although grid draws nothing
    real_valued = _resolve_real(cfg, args)
    cells = _grid_cells_from_config(cfg)
    lines = ["N,M,components,real,predicted,numerical,agree,gap_ratio,regime"]
    passed = flagged = disagreements = 0
    for rect, comps in cells:
        _, prediction, rank, spectrum = _rank_core(comps, rect, real_valued, args.tolerance)
        gap = spectral_gap_ratio(spectrum, rank)
        trustworthy = prediction.regime_flag is not RegimeFlag.OUTSIDE
        agree = rank == prediction.formula_value
        if not trustworthy:
            flagged += 1
        elif agree:
            passed += 1
        else:
            disagreements += 1
        lines.append(
            f"{rect.N},{rect.M},{_component_label(comps)},{int(real_valued)},"
            f"{prediction.formula_value},{rank},{int(agree and trustworthy)},"
            f"{'' if gap is None else f'{gap:.6g}'},{prediction.regime_flag.value}"
        )
    lines.append(f"SUMMARY,pass={passed},cells={len(cells)},flagged={flagged}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    if disagreements:
        return EXIT_DISAGREE
    if flagged and not passed:
        return EXIT_REGIME
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evarank",
        description="Low-rank evanescent-field covariance toolkit",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, helptext in (
        ("rank", "predict covariance rank and check it numerically"),
        ("verify", "audit dependence certificates on the dependent block"),
        ("simulate", "compare sample covariance against the exact one"),
        ("stap", "run a jammer/clutter subspace projection experiment"),
        ("grid", "sweep lattice sizes and component sets to CSV"),
    ):
        p = sub.add_parser(mode, help=helptext)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write the report here as well")
        p.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="relative tolerance (singular-value cut or certificate residual)",
        )
        p.add_argument("--trials", type=int, default=None, help="snapshot count")
        p.add_argument("--real", action="store_true", help="use the real-valued field model")
    return parser


_DISPATCH = {
    "rank": cmd_rank,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "stap": cmd_stap,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _DISPATCH[args.mode](cfg, args)
    except ConfigError as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG
    except ValueError as exc:
        _diagnostic("value", str(exc))
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
