"""The benchmark's traced mode wraps chainpetri functions and methods by name.

`bench/tracer.py` lists them in `WRAPPED`; a rename here must fail this test
rather than break `bench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _wrapped():
    # tracer.py imports only the standard library at module level
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_traced_attributes_resolve():
    missing = []
    for module, owner, attr, _ in _wrapped():
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(".".join(filter(None, (module, owner, attr))))
    assert missing == []
