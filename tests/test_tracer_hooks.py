"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
owner and name; a renamed or deleted one would break every traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.HOOKS


def test_every_hooked_name_resolves():
    hooks = _tracer_hooks()
    assert hooks
    missing = []
    for hook in hooks:
        module_name, _, cls = hook.owner.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, hook.name, None)):
            missing.append(f"{hook.owner}.{hook.name}")
    assert not missing, f"hooked but missing: {missing}"
