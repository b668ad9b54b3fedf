"""The names the benchmark's tracer (``perfbench/spans.py``) wraps still resolve.

The tracer wraps ``nle`` functions by module path, ``PureState``/``Ensemble``
methods through the class ``__dict__`` and ``quantify.partitions_with_caps``
by name. Deleting or renaming one of them, or turning a wrapped method into a
property, breaks the benchmark's traced passes; this test fails first. It
reads ``perfbench/spans.py`` and changes nothing there.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

# the tracer wraps what ``sys.modules`` holds, so load every module it names
import nle  # noqa: F401
import nle.catalog  # noqa: F401
import nle.cli  # noqa: F401
from nle import states

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "nle" or n.startswith("nle."))]
    return [*modules, states.PureState, states.Ensemble, np.linalg]


def test_tracer_wraps_every_pinned_name_and_restores_it():
    spans = _load_spans()
    originals = {(module, attr): getattr(sys.modules[module], attr)
                 for module, attr, _ in spans.FUNCTIONS}
    methods = {(cls, attr): getattr(states, cls).__dict__[attr] for cls, attr, _ in spans.METHODS}
    assert all(inspect.isfunction(m) for m in methods.values()), methods
    before = [(owner, key, value) for owner in _owners() for key, value in vars(owner).items()]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            assert getattr(sys.modules[module], attr).__wrapped__ is original, (module, attr)
        for (cls, attr), original in methods.items():
            assert getattr(states, cls).__dict__[attr].__wrapped__ is original, (cls, attr)
        assert len(tracer._undo) >= len(spans.FUNCTIONS) + len(spans.METHODS) \
            + len(spans.KERNELS) + 1
    finally:
        tracer.uninstall()
    assert all(vars(owner)[key] is value for owner, key, value in before)
