import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poisonbench
from poisonbench import harness
from poisonbench.attack import AttackConfig
from poisonbench.data import SyntheticSpec
from poisonbench.defend import ProdaConfig


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


# fields no call outside the tests sets, each with its reason: tier-1 sets
# attack_max_outer to 1-5 to stay fast (ROADMAP aim 2)
FIELDS_SET_ONLY_BY_TESTS = {"ExperimentSpec.attack_max_outer"}


def test_every_config_field_has_a_caller():
    # a config field that only the tests set is an option no user reaches. A
    # field is set by a keyword of that name in any call (the CLI spreads a
    # dict(csv_path=...) into the spec) or by position in a direct call of its
    # class. perfbench is parsed, not imported.
    configs = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
               for cls in (AttackConfig, ProdaConfig, harness.ExperimentSpec)}
    root = Path(__file__).resolve().parents[1]
    keywords, positional = set(), set()
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                keywords.update(k.arg for k in node.keywords)
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in configs:
                    positional.update(f"{name}.{f}" for f in configs[name][: len(node.args)])
    unset = {f"{cls}.{f}" for cls, names in configs.items() for f in names
             if f not in keywords and f"{cls}.{f}" not in positional}
    assert unset == FIELDS_SET_ONLY_BY_TESTS
