"""perfbench's tracer wraps keygraph functions by name; every name must exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    spans = load_spans()
    targets = [(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with spans.Tracer() as tracer:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(targets, before))
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in zip(targets, before))
    assert tracer.spans == []
