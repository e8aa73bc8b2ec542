"""The benchmark's traced names still name engine functions.

``perfbench/tracer.py`` looks each (module, function) pair up with
``getattr`` when a traced run starts, so a renamed or deleted function
would crash ``--trace 1`` runs and nothing else would notice.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_pair_names_an_engine_function():
    pairs = _traced_pairs()
    assert pairs
    missing = [(module, name) for module, name in pairs
               if not callable(getattr(importlib.import_module(module),
                                       name, None))]
    assert missing == []
