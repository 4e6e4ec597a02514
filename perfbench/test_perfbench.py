"""Tests of the benchmark itself: its checks, its tracer and its result line.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

import run

cli = run.import_program()

import layertrace  # noqa: E402  (needs evarank importable)
import workloads  # noqa: E402


def wrapped_names() -> list[str]:
    """Every attribute in evarank's modules and classes that holds a wrapper."""
    found = []
    for module in layertrace.evarank_modules():
        for key, value in vars(module).items():
            if hasattr(value, layertrace.WRAPPED_MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{key}.{k}" for k, v in vars(value).items()
                             if hasattr(v, layertrace.WRAPPED_MARK))
    return found


def invoke(step: workloads.Step, cfg: dict, tmp_path) -> tuple[int, str]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [step.verb, "--config", str(path)]
    if step.out_name:
        argv += ["--out", str(tmp_path / step.out_name)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def small_config(step: workloads.Step) -> dict:
    """The step's config from a fixed seed, on a lattice small enough for a test."""
    cfg = step.make_config(random.Random("test"))
    if "rect" in cfg:
        cfg["rect"] = {"N": 16, "M": 16}
    if "scenario" in cfg:
        cfg["scenario"]["antennas"] = cfg["scenario"]["pulses"] = 12
    if "trials" in cfg:
        cfg["trials"] = 64
    return cfg


def step_named(label: str) -> workloads.Step:
    return next(s for steps in workloads.WORKLOADS.values() for s in steps if s.label == label)


def test_formula_matches_the_paper_on_the_workload_shapes():
    assert workloads.formula_rank(48, 48, workloads.ORACLE_SLOPES) == 48 * 5 + 48 * 3 - 15
    assert workloads.formula_rank(48, 48, workloads.ORACLE_SLOPES, real_valued=True) == (
        48 * 10 + 48 * 6 - 60)
    assert 32 * 32 - workloads.formula_rank(32, 32, workloads.AUDIT_SLOPES) == 600
    scenario = {"jammers": [{}, {}], "clutter": {"slope": 1}}
    assert workloads.formula_rank(32, 32, workloads.stap_slopes(scenario)) == 32 + 32 * 3 - 3
    assert workloads.formula_rank(4, 4, [(3, 2), (2, 1)]) == 16  # clamped to NM


@pytest.mark.parametrize(
    "label, field",
    [
        ("rank_s", "numerical_rank"),
        ("rank_s", "prediction"),
        ("rank_real_s", "numerical_rank"),
        ("verify_s", "points_audited"),
        ("stap_s", "predicted_rank"),
        ("simulate_s", "exact_rank"),
    ],
)
def test_check_flags_an_altered_rank(label, field, tmp_path):
    step = step_named(label)
    cfg = small_config(step)
    code, stdout = invoke(step, cfg, tmp_path)
    assert step.check(cfg, code, stdout) == []
    report = json.loads(stdout)
    report[field] += 1
    altered = json.dumps(report, sort_keys=True) + "\n"
    assert any(field in problem for problem in step.check(cfg, code, altered))


def test_check_flags_an_exit_code_and_a_wrong_grid_summary():
    step = step_named("grid_s")
    good = "header\n" + workloads.STOCK_GRID_SUMMARY + "\n"
    assert step.check({}, 0, good) == []
    assert step.check({}, 1, good) == ["exit code 1"]
    assert step.check({}, 0, good.replace("pass=131", "pass=130")) != []


class ChangingCli:
    """Passes the grid check with a different report each call, then raises."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("escaped")
        print(f"call {self.calls}\n{workloads.STOCK_GRID_SUMMARY}")
        return 0


def test_session_counts_nondeterministic_stdout_and_escaped_errors(tmp_path):
    session = run.Session("audit_small", 1, tmp_path)
    session.cli = ChangingCli()
    grid = 1
    for _ in range(3):
        session.invoke(grid, 0)
    assert session.attempted == 3
    assert len(session.failures) == 2
    assert "stdout differs" in session.failures[0]
    assert "escaped" in session.failures[1]


def test_tracer_wraps_every_lookup_and_restores_every_name(tmp_path):
    assert wrapped_names() == []
    before = {
        (m.__name__, k): v for m in layertrace.evarank_modules() for k, v in vars(m).items()
    }
    step = step_named("verify_s")
    with layertrace.Tracer() as tracer:
        wrapped = set(wrapped_names())
        code, stdout = invoke(step, small_config(step), tmp_path)
    assert {
        "evarank.cli.assemble_gamma",
        "evarank.stap.assemble_gamma",
        "evarank.covariance.assemble_gamma",
        "evarank.cli.make_certificate",
        "evarank.rank.make_certificate",
        "evarank.rank.shift_tuple_admissible",
        "evarank.covariance.CovarianceModel.factorization_residual",
        "evarank.cli.main",
    } <= wrapped
    assert code == 0
    assert wrapped_names() == []
    after = {
        (m.__name__, k): v for m in layertrace.evarank_modules() for k, v in vars(m).items()
    }
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = {s.name for s in tracer.spans}
    assert {"cli", "covariance.assemble_gamma", "rank.find_certificate",
            "rank.verify_certificate"} <= names
    root = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in root] == ["cli"]
    assert {s.invocation for s in tracer.spans} == {root[0].invocation}
    assert tracer.counters["rank.shift_tuples_tried"] >= tracer.counters["rank.certificates_found"]
    assert 0.0 <= tracer.self_time("cli") <= tracer.total("cli")


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (50, 2.0)
    values = [float(i) for i in range(1, 101)]
    pct, value = run.tail(values)
    assert pct == 90 and value == 90.0
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_holds_every_metric_of_benchmark_json(trace, capsys):
    code = run.main(["--workload", "audit_small", "--seed", "7", "--seconds", "1",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert wrapped_names() == []
