"""The benchmark tracer still finds every function it wraps in pvb3.

``bench/tracing.py`` looks its targets up by module and name, so a rename
inside the package would break a traced benchmark run while every other
test passes.  The tracer is loaded from its file and only installed and
uninstalled here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pvb3_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    """Name -> (namespace, attribute) of every TRACED target."""
    out = {}
    for module, qual, *_ in tracing.TRACED:
        owner = importlib.import_module("pvb3." + module)
        attr = qual
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = vars(owner).get(cls_name)
        out[module + "." + qual] = owner, attr
    return out


def snapshot(tracing, owners):
    """Every name bound in the package's modules and in the traced classes."""
    spaces = [importlib.import_module("pvb3." + m) for m in tracing.MODULES]
    spaces += [importlib.import_module("pvb3")] + [owner for owner, _ in owners]
    return [(space, dict(vars(space))) for space in spaces]


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracing = load_tracing()
    found = targets(tracing)
    missing = [name for name, (owner, attr) in found.items()
               if owner is None or attr not in vars(owner)]
    assert missing == []
    originals = {name: vars(owner)[attr] for name, (owner, attr) in found.items()}
    before = snapshot(tracing, found.values())
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, (owner, attr) in found.items():
            assert vars(owner)[attr].__wrapped__ is originals[name], name
    finally:
        tracer.uninstall()
    for name, (owner, attr) in found.items():
        assert vars(owner)[attr] is originals[name], name
    for (space, old), (_, new) in zip(before, snapshot(tracing, found.values())):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items()), space
