import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import poisonbench


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.linalg alone
    # costs several times the package's own import time
    src = str(Path(poisonbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, poisonbench; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_traced_bench_targets_resolve():
    # perfbench/tracer.py wraps these (layer, attribute) pairs; read them
    # without importing the tracer, so a deleted function fails here
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for layer, attrs in targets.items():
        module = importlib.import_module(f"poisonbench.{layer}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                assert hasattr(owner, part), f"poisonbench.{layer}.{attr}"
                owner = getattr(owner, part)
            assert callable(owner), f"poisonbench.{layer}.{attr}"


def test_bench_tracer_patches_every_target():
    # load perfbench/tracer.py by its path and run its own patching over
    # every target, so a renamed traced function fails here, not in the bench
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("poisonbench.cli")  # loads every traced layer
    spans = {f"{layer}.{attr.split('.')[-1]}" for layer, attrs in tracer.TARGETS.items()
             for attr in attrs}
    assert set(tracer.ATTACK_ENTRIES + tracer.GRADIENTS) <= spans
    done = []
    try:
        for layer, attrs in tracer.TARGETS.items():
            for attr in attrs:
                done += tracer.patch(layer, attr, lambda fn: lambda *a, **k: fn(*a, **k))
        assert tracer.unpatched(done) == []
    finally:
        tracer.restore(done)
