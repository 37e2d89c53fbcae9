import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poisonbench
from poisonbench import harness
from poisonbench.data import SyntheticSpec


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


# the cell-record keys perfbench/workloads.py reads (`_from_record` and
# `_run_cli_group`); `_from_record` skips a count whose key is missing, so a
# renamed key would zero the bench's work counts without failing it
BENCH_RECORD_KEYS = (
    "attack_refits", "attack_iterations", "wall_time_attack_s", "wall_time_defense_s",
    "mse_clean", "mse_poisoned", "mse_poisoned_trainset", "mse_defended",
)


@pytest.mark.parametrize(
    "defense,count_key", [("proda", "beta_used"), ("trim", "defense_iterations")]
)
def test_cell_records_carry_the_keys_the_bench_reads(defense, count_key):
    spec = harness.ExperimentSpec(
        synthetic=SyntheticSpec(2, 60, (0.3, -0.2), 0.5, 0.1, seed=5), lambda_policy=0.0,
        attack="nopt", defense=defense, alpha_grid=(0.1,), gamma_grid=(3,), repeats=1,
        attack_max_outer=2,
    )
    record = harness.run_cell(spec, "ols", 0.1, 3 if defense == "proda" else None, 0)
    assert "error" not in record
    missing = [k for k in BENCH_RECORD_KEYS + (count_key,) if k not in record]
    assert missing == []
