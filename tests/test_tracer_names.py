"""Every name perfbench's layer tracer wraps must resolve.

The tracer (`perfbench/layertrace.py`) patches functions by module and
attribute name and raises AttributeError when one is gone, so a deletion
that would break `perfbench/run.py --trace 1` fails here, in tier-1.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import evarank.cli
import evarank.rank
from evarank.covariance import CovarianceModel, assemble_gamma
from evarank.fields import EvanescentComponent, ModulatingProcessSpec, ProcessKind
from evarank.lattice import LatticeRect, make_slope_pair

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


_TRACER = _load_layertrace()
TRACED = [row[:2] for row in (*_TRACER.SPANS, *_TRACER.COUNTED)]


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):  # a dotted attribute is a method on its class
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_counts_read_gamma_and_stacked():
    # the assemble_gamma span's counts read both from the model it returns
    assert {"gamma", "stacked"} <= set(dir(CovarianceModel))
    comp = EvanescentComponent(make_slope_pair(2, 1), 0.9, ModulatingProcessSpec(ProcessKind.WHITE))
    model = assemble_gamma([comp], LatticeRect(4, 5))
    assert model.gamma.shape == (20, 20)
    assert model.stacked.shape == (model.blocks[0].cov.shape[0], 20)


def test_verify_calls_the_certificate_names_the_tracer_expects(tmp_path, capsys, monkeypatch):
    # perfbench's self-test wants rank.find_certificate and
    # rank.verify_certificate spans and a shift_tuple_admissible count from a
    # verify run; spy on each name wherever evarank holds it, as the tracer does
    calls = {}

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return counted

    for name in ("find_certificate", "verify_certificate", "shift_tuple_admissible"):
        original = getattr(evarank.rank, name)
        wrapper = spy(name, original)
        for module in [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "evarank" or key.startswith("evarank."))]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "rect": {"N": 8, "M": 8},
        "components": [{"a": 3, "b": 2, "omega": 0.9}, {"a": 2, "b": -1, "omega": 1.6}],
    }))
    assert evarank.cli.main(["verify", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert set(calls) == {"find_certificate", "verify_certificate", "shift_tuple_admissible"}
    # the tracer counts make_certificate where cli looks it up
    assert evarank.cli.make_certificate is evarank.rank.make_certificate
