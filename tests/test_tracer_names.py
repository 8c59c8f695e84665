"""The benchmark's tracer wraps `noninner` functions by name, so a renamed
or removed function would leave its metrics reading 0 without failing the
benchmark.  Every name it lists must resolve on the package's modules."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    """perfbench/tracer.py loaded as a module; loading only defines its
    name lists and classes, and nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer_module()
    names = tracer.SPANNED + tracer.AGGREGATED
    assert len(names) == len(set(names)) >= 30
    for module_name, qualname in names:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner, attr = module, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = vars(module)[cls_name]
        # defined there, not inherited or imported under another name
        assert callable(vars(owner).get(attr)), (module_name, qualname)
        if owner is module:
            assert vars(module)[attr].__module__ == module.__name__, (module_name, qualname)
