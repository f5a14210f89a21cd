"""Every call site that the benchmark tracer (``perfbench/tracer.py``) hooks
still exists in lrfit, so a ``--trace 1`` run cannot fail on a renamed or
removed function.  The tracer file is loaded, never edited."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_definition(name: str):
    """The function a traced-call name such as ``"mesh.LRSpace.coverage"``
    names, looked up in the module that defines it."""
    module, *path = name.split(".")
    obj = importlib.import_module("lrfit." + module)
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_site_resolves_to_its_traced_call():
    tracer = load_tracer()
    sites = {(module, attr): name for (module, attr), name in tracer.MODULE_SITES.items()}
    sites.update({(module, cls, method): name
                  for (module, cls, method), name in tracer.METHOD_SITES.items()})
    assert sites
    for site, name in sites.items():
        assert name in tracer.TRACED, site
        obj = importlib.import_module(site[0])
        for attr in site[1:]:
            assert hasattr(obj, attr), f"{site}: {attr!r} not found"
            obj = getattr(obj, attr)
        assert callable(obj), site
        assert obj is traced_definition(name), f"{site} is not {name}"
