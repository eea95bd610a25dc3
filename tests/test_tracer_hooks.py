"""The benchmark (perfbench/) reaches the package by module path and name:
the tracer wraps package functions by owner and name, and the driver and
its operation runner import and call package functions.  A renamed or
deleted name, or a changed signature, would break every benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(script: str):
    """Execute perfbench/<script>.py as a module, with perfbench/ on the
    import path as when it runs, and leave sys.modules and sys.path as
    they were."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{script}", PERFBENCH / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        del sys.modules[spec.name]
        sys.modules.pop("tracer", None)  # run.py imports tracer.py by name
    return module


def test_every_hooked_name_resolves():
    hooks = _load("tracer").HOOKS
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


def _package_names(script: str) -> list[tuple[str, str]]:
    """(module, name) of each package name the script reads: the names of
    its `from cfnormal... import` lines, the attributes it loads from an
    `import cfnormal.x as y` module, and for each library call it plans
    (an `Op(call=...)`), that function of cfnormal.census."""
    tree = ast.parse((PERFBENCH / f"{script}.py").read_text())
    names, aliases = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "cfnormal"):
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name) for alias in node.names
                           if alias.name.startswith("cfnormal.")
                           and alias.asname)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "Op"):
            names += [("cfnormal.census", kw.value.value)
                      for kw in node.keywords if kw.arg == "call"]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.append((aliases[node.value.id], node.attr))
    return names


def test_every_benchmark_import_resolves():
    run_names, op_names = _package_names("run"), _package_names("op")
    assert ("cfnormal.census", "ef_decay_estimates") in run_names
    assert ("cfnormal.cli", "main") in op_names
    missing = [f"{module}.{name}" for module, name in run_names + op_names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"read by the benchmark but missing: {missing}"


def test_montecarlo_arguments_bind(tmp_path):
    import cfnormal.census as census
    plan = _load("run").plan_montecarlo(1, tmp_path)
    calls = [op for op in plan.ops if op.call]
    assert {op.call for op in calls} == {"ef_decay_estimates", "mc_growth_rate"}
    for op in calls:
        inspect.signature(getattr(census, op.call)).bind(**op.kwargs)


def test_tracer_sees_every_sampler_pass(monkeypatch):
    """Each Gauss-chain pass draws through a GaussDigitSampler method that
    the tracer hooks, so its row-steps count the plain growth passes as
    well as the tilted ones (the tuning pilots are timed apart)."""
    import cfnormal.census as census
    sampler = census.GaussDigitSampler
    hooked = [hook.name for hook in _load("tracer").HOOKS
              if hook.owner == "cfnormal.census:GaussDigitSampler"]
    assert hooked
    row_steps = []

    def counting(method):
        def counted(self, *args, **kwargs):
            row_steps.append(self.n)
            return method(self, *args, **kwargs)
        return counted

    for name in hooked:
        monkeypatch.setattr(sampler, name, counting(getattr(sampler, name)))
    census.mc_growth_rate(depth=20, n_samples=1000)
    assert sum(row_steps) == 20 * 1000
    row_steps.clear()
    census.ef_decay_estimates(checkpoints=(10, 30), n_samples=1000, threads=1)
    # the plain F pass and the two tilted E passes, each to depth 30
    assert sum(row_steps) == 3 * 30 * 1000
