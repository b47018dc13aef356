"""The library names that the benchmark binds must keep resolving.

``bench/tracing.py`` wraps functions and methods by name, and
``bench/workloads.py`` calls ``biquadratic.degenerate_points``; a library
change that deletes or renames one of them would otherwise break only
traced benchmark runs.  The tracing module imports only the standard
library, so it is loaded here by path, without installing any wrapper.
"""

from __future__ import annotations

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_name_resolves():
    names = [(module, attr) for _, module, attrs, _ in _targets() for attr in attrs]
    names.append(("triforms.biquadratic", "degenerate_points"))
    for module, attr in names:
        # dotted names are Class.method
        assert callable(reduce(getattr, attr.split("."), importlib.import_module(module))), (
            module,
            attr,
        )
