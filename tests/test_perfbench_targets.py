"""The benchmark's tracer wraps noncong functions by module and attribute
path (``perfbench/tracer.py`` ``TARGETS``).  A renamed or deleted target is
not an error there: the tracer records it as absent and its per-layer
metrics read no data.  This guard fails instead, so a rename that needs a
tracer change is seen when it is made."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("noncong", "noncong.series", "noncong.catalog", "noncong.surfaces",
           "noncong.traces", "noncong.congruence", "noncong.cli")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    modules = {name: importlib.import_module(name) for name in MODULES}
    unresolved = []
    for name, modname, path, _ in load_tracer().TARGETS:
        owner = modules.get(modname)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            unresolved.append(name)
    assert unresolved == []
