"""The benchmark traces an audit by wrapping program functions by name
(``perfbench/tracing.py``, ``BOUNDARIES``). A renamed or deleted function
would drop its spans from every traced count without an error, so each
name must resolve here. Nothing from perfbench is called: loading the
module wraps no function."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    boundaries = _load_tracing().BOUNDARIES
    assert boundaries
    missing = [f"{module.__name__}.{name}"
               for module, name, _ in boundaries
               if not callable(getattr(module, name, None))]
    assert missing == []
