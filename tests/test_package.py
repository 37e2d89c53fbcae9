import ast
import dataclasses
import functools
import importlib
import importlib.util
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import poisonbench
from poisonbench import attack as attack_module
from poisonbench import defend, harness, records
from poisonbench.attack import AttackConfig
from poisonbench.data import SyntheticSpec, generate_synthetic, poison_count
from poisonbench.defend import ProdaConfig, compute_beta, subset_size, trim_defend
from poisonbench.harness import ExperimentSpec

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
PACKAGE, BENCH = "src/poisonbench", "perfbench"


@functools.cache
def parsed(folder: str) -> dict[str, ast.Module]:
    """The syntax tree of each .py file under ROOT/`folder` (PACKAGE or
    BENCH) by file stem, each file parsed once a session; the guards only
    read the trees."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / folder).rglob("*.py"))}


def all_trees() -> list[ast.Module]:
    """The package's trees, then perfbench's."""
    return [*parsed(PACKAGE).values(), *parsed(BENCH).values()]


def load_bench(name: str):
    """perfbench/<name>.py, run from its path as a fresh module on each
    call, so no test sees the module state another test left."""
    path = ROOT / BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.linalg alone
    # costs several times the package's own import time
    code = "import sys, poisonbench; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = run_python(["-c", code], check=True)
    assert out.stdout.strip() == "[]"


def test_serial_sweep_loads_no_process_pool_or_chart_writer():
    # the pool's module brings multiprocessing, logging and socket; harness
    # and records load it and svgplot only where a pool is opened or a chart
    # is drawn
    code = """
import sys
from poisonbench.data import SyntheticSpec
from poisonbench.harness import ExperimentSpec, run_sweep
spec = ExperimentSpec(synthetic=SyntheticSpec(d=2, n=30, seed=3), alpha_grid=(0.1,), repeats=1)
records = list(run_sweep(spec, jobs=1))
print(len(records), "error" in records[0],
      [m for m in ("concurrent.futures.process", "poisonbench.svgplot") if m in sys.modules])
"""
    out = run_python(["-c", code], check=True)
    assert out.stdout.strip() == "1 False []"


# what tests/test_report.py may import: it runs where numpy is absent
REPORT_TEST_IMPORTS = {"pytest", "poisonbench.cli", "poisonbench.records", "poisonbench.svgplot"}


def test_report_tests_pass_without_numpy(tmp_path):
    # test_report runs report, --help and the CLI's usage errors. With numpy
    # blocked, importing it or a compute module (each imports numpy at its
    # top) fails, so the module passes only if none loads; conftest imports
    # numpy, and so may a plugin
    module = ROOT / "tests" / "test_report.py"
    imported = set()
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "poisonbench":
            imported.update(f"poisonbench.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] not in sys.stdlib_module_names} \
        <= REPORT_TEST_IMPORTS
    code = "import sys; sys.modules['numpy'] = None; import pytest; sys.exit(pytest.main())"
    result = run_python(
        ["-c", code, "-q", "--noconftest", "-p", "no:cacheprovider",
         f"--basetemp={tmp_path / 'inner'}", str(module)],
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"), cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_traced_bench_targets_resolve():
    # perfbench/tracer.py wraps these (layer, attribute) pairs; read them
    # without importing the tracer, so a deleted function fails here
    targets = next(
        ast.literal_eval(node.value)
        for node in parsed(BENCH)["tracer"].body
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
    tracer = load_bench("tracer")
    for layer in tracer.TARGETS:
        importlib.import_module(f"poisonbench.{layer}")
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


def test_bench_cli_command_lines_parse(tmp_path):
    # load perfbench/workloads.py by its path and parse every command line
    # its sweep-cli workload runs, so a CLI change that refuses the bench's
    # sweep or report fails here, not in the bench
    from poisonbench import cli

    groups = load_bench("workloads").build("sweep-cli", 1, 2, tmp_path)["groups"]
    argvs = [argv for group in groups for argv in group]
    assert [argv[0] for argv in argvs] == ["sweep", "report"] * 2
    for argv in argvs:
        cli.parse_args(argv)


def test_traced_attacks_and_defenses_pass_the_bench_self_checks(tmp_path):
    # the traced bench's per-call checks, run here: an attack makes exactly
    # refit_count fit calls, and Proda makes two fits for each of its beta
    # trials, so a loop that refits outside attack.fit or a Proda that stacks
    # its fits fails in tier-1 too
    tracer = load_bench("tracer")
    for layer in tracer.TARGETS:
        importlib.import_module(f"poisonbench.{layer}")
    clean, _ = generate_synthetic(SyntheticSpec(3, 60, (0.3, -0.2, 0.1), 0.4, 0.08, seed=5))
    proda_cfg = ProdaConfig(gamma=4, seed=2)
    traced = tracer.Tracer(tmp_path)
    traced.install()
    try:
        refits = 0
        for family, lam in [("ols", 0.0), ("ridge", 0.1), ("lasso", 0.01), ("enet", 0.01)]:
            for attack in (attack_module.nopt_attack, attack_module.opt_attack):
                cfg = AttackConfig(alpha=0.2, seed=1, max_outer_iters=2)
                refits += attack(clean, cfg, family, lam).refit_count
        defend.proda_defend(clean, proda_cfg, "ols", 0.0)
        defend.trim_defend(clean, 0.2, "ols", 0.0)
    finally:
        traced.uninstall()
    assert traced.errors == []
    assert traced.counters["attack.calls"] == 8
    assert traced.counters["attack.refits"] == refits
    beta = defend.compute_beta(proda_cfg.alpha_assumed, proda_cfg.gamma, proda_cfg.epsilon)
    assert traced.counters["proda.trials"] == beta
    assert traced.counters["trim.calls"] == 1


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
    keywords, positional = set(), set()
    for tree in all_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keywords.update(k.arg for k in node.keywords)
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in configs:
                    positional.update(f"{name}.{f}" for f in configs[name][: len(node.args)])
    unset = {f"{cls}.{f}" for cls, names in configs.items() for f in names
             if f not in keywords and f"{cls}.{f}" not in positional}
    assert unset == FIELDS_SET_ONLY_BY_TESTS


# defaulted parameters no call outside the tests passes, each with its reason:
# test_every_loop_ascent_is_the_public_gradient hands the attack loop's own
# merged moments and H^-1 to the public gradients, to show the loop's ascent
# is theirs bit for bit, and no other seam reaches the loop's arrays
PARAMETERS_PASSED_ONLY_BY_TESTS = {
    "attack.objective_gradient.merged", "attack.objective_gradient.h_inv",
    "attack.opt_objective_gradient.merged", "attack.opt_objective_gradient.h_inv",
}


def _callee_names(node):
    """The names a called expression can be: a name, an attribute, or either
    branch of a conditional."""
    if isinstance(node, ast.IfExp):
        return _callee_names(node.body) | _callee_names(node.orelse)
    name = getattr(node, "id", getattr(node, "attr", None))
    return {name} if name else set()


def test_every_parameter_has_a_caller():
    # a defaulted parameter that only the tests pass is an option no user
    # reaches. A call passes it by a keyword of that name, by position, or
    # through *args or **kwargs, to the function's name, to a method's
    # attribute (past self or cls), to a class for its __init__, or to a
    # name assigned from the function (`attack_fn = nopt_attack if ... else
    # opt_attack`); perfbench is parsed, not imported
    params = {}  # "module.function.parameter" -> (called name, position or None, parameter)
    for module, tree in parsed(PACKAGE).items():
        for node in tree.body:
            defs = [(node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):  # the package has no staticmethod
                defs = [(node.name if item.name == "__init__" else item.name, item, 1)
                        for item in node.body if isinstance(item, ast.FunctionDef)]
            for called, fn, skip in defs:
                args = fn.args
                positional = [a.arg for a in args.posonlyargs + args.args][skip:]
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    params[f"{module}.{fn.name}.{positional[i]}"] = (called, i, positional[i])
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params[f"{module}.{fn.name}.{a.arg}"] = (called, None, a.arg)
    assert params
    passed = set()
    for tree in all_trees():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                aliases.setdefault(node.targets[0].id, set()).update(_callee_names(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            names = set().union(*({n} | aliases.get(n, set()) for n in _callee_names(node.func)))
            keywords = {k.arg for k in node.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            passed.update(key for key, (called, i, name) in params.items() if called in names
                          and (spread or name in keywords or (i is not None and i < len(node.args))))
    assert set(params) - passed == PARAMETERS_PASSED_ONLY_BY_TESTS


def test_readme_library_example_runs(capsys):
    # the README's one Python example is the public API as users first see it
    readme = ROOT / "README.md"
    (example,) = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    exec(compile(example, str(readme), "exec"), {})
    poisoned_mse, defended_mse = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= defended_mse < poisoned_mse


def test_readme_summary_columns_are_the_harness_columns():
    # the columns README lists for summary.csv are the keys of aggregate's rows
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"`summary\.csv`: fixed columns `([^`]*)`", readme)
    assert tuple(c.strip() for c in listed.split(",")) == records.SUMMARY_COLUMNS


def test_every_function_has_a_caller():
    # a package function or method is used when its name appears in the
    # package or perfbench as a name, an attribute or a string (perfbench's
    # tracer names its targets in strings); perfbench is parsed, not imported.
    # Dunders are exempt: the interpreter calls them (a module's __getattr__
    # by PEP 562), and so is a method that overrides one of a base class,
    # which the base calls
    defined, used = {}, set()
    for module, tree in parsed(PACKAGE).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("__"):
                    defined[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                bases = getattr(importlib.import_module(f"poisonbench.{module}"),
                                node.name).__mro__[1:]
                defined.update((f"{node.name}.{item.name}", item.name) for item in node.body
                               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and not item.name.startswith("__")
                               and not any(hasattr(base, item.name) for base in bases))
    for tree in all_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    uncalled = {key for key, name in defined.items()
                if name not in used and name not in poisonbench.__all__}
    assert uncalled == set()


def test_only_regress_solves_linear_systems():
    # `regress._solve` is the one rule for a penalized Gram system: the
    # inverse, its condition bound and the minimum-norm fallback. A module
    # that calls numpy.linalg's solve, inv or lstsq, or imports the LAPACK
    # gufuncs under them, would bring a second rule back
    solver = re.compile(r"linalg\.(solve|inv|lstsq|_umath_linalg)\b")
    found = set()
    for module, tree in parsed(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update((module, name) for name in names if solver.search(name))
    assert {module for module, _ in found} <= {"regress"}, found


def test_attack_step_products_call_ndarray_dot():
    # on the attack's small operands the `@` gufunc costs about twice what
    # `ndarray.dot` does for the same BLAS call and bits, so neither module on
    # the per-step path writes a matrix product with `@`
    found = []
    for module in ("attack", "regress"):
        found += [f"{module}:{node.lineno}" for node in ast.walk(parsed(PACKAGE)[module])
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert found == []


# sites outside regress that test a family by name, each with its reason:
# `--lambda auto` must not split the data under OLS, since `split_three`
# needs three rows and a two-row CSV fits under OLS (ROADMAP aim 2)
FAMILY_TESTS_OUTSIDE_REGRESS = {("cli", "_load_dataset", "ols")}


def test_only_regress_knows_the_families():
    # `regress` holds what a family means: its penalty mix, its solver, its
    # KKT system and OLS's lambda of 0. A module that compares a family with
    # a name, or builds or solves a penalized system itself, would bring a
    # second definition back. A site is the top-level definition holding it
    rules = {"_penalty_mix", "_solve", "penalized_gram"}
    found = set()
    for module, tree in parsed(PACKAGE).items():
        if module == "regress":
            continue
        for top in tree.body:
            site = (module, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    for operand in (node.left, *node.comparators):
                        items = getattr(operand, "elts", [operand])  # a tuple, list or set
                        found.update((*site, item.value) for item in items
                                     if isinstance(item, ast.Constant)
                                     and item.value in records.FAMILIES)
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
                if isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                found.update((*site, name) for name in names & rules)
    assert found == FAMILY_TESTS_OUTSIDE_REGRESS


def test_only_data_chooses_a_loader():
    # `data.load_source` is the one choice between the CSV loader and the
    # generator. A module that names either loader, by a call or an import,
    # would bring a second choice back; `__init__` exports them in strings
    loaders = {"load_csv", "generate_synthetic"}
    found = set()
    for module, tree in parsed(PACKAGE).items():
        if module == "data":
            continue
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            found.update((module, name) for name in names & loaders)
    assert found == set()


def test_cli_imports_no_numpy():
    # numpy stays with the compute modules: the CLI parses and checks its
    # options with the standard library, and a command imports what it runs
    found = []
    for node in ast.walk(parsed(PACKAGE)["cli"]):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append(node.module)
    assert not found, found


# fields only the tests read, each with its reason: tier-1's reference Floyd
# draw compares its group against winning_group_indices, and criterion 7
# asserts the paper's Proda bound through ComplexityEstimate's three fields
FIELDS_READ_ONLY_BY_TESTS = {
    "DefenseResult.winning_group_indices",
    "ComplexityEstimate.beta", "ComplexityEstimate.iterations_bound", "ComplexityEstimate.p_u",
}


def test_every_field_has_a_reader():
    # a dataclass field or property that nothing reads is state no output
    # shows. It is read when its name appears in the package or perfbench as
    # an attribute load or a string (to_dict's keys, perfbench's record
    # keys); perfbench is parsed, not imported
    fields, read = set(), set()
    for tree in parsed(PACKAGE).values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = {getattr(getattr(d, "func", d), "id", None) for d in cls.decorator_list}
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and "dataclass" in decorators:
                    fields.add((cls.name, item.target.id))
                elif isinstance(item, ast.FunctionDef) and any(
                        getattr(d, "id", None) == "property" for d in item.decorator_list):
                    fields.add((cls.name, item.name))
    for tree in all_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert fields
    unread = {f"{cls}.{name}" for cls, name in fields if name not in read}
    assert unread == FIELDS_READ_ONLY_BY_TESTS


def test_dir_lists_every_export_and_loads_no_numpy():
    assert set(poisonbench.__all__) <= set(dir(poisonbench))
    code = ("import sys, poisonbench; names = dir(poisonbench); "
            "print(set(poisonbench.__all__) <= set(names), 'numpy' in sys.modules)")
    out = run_python(["-c", code], check=True)
    assert out.stdout.strip() == "True False"


def test_cli_module_runs_as_a_script():
    out = run_python(["-m", "poisonbench.cli", "--help"])
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


# each builder takes one setting by keyword over valid values of the rest
TRIM_DATA = generate_synthetic(SyntheticSpec(d=2, n=40, seed=1))[0]
BUILDERS = {
    "SyntheticSpec": lambda **kw: SyntheticSpec(**{"d": 2, "n": 40, **kw}),
    "poison_count": lambda **kw: poison_count(**{"n_clean": 40, "alpha": 0.1, **kw}),
    "AttackConfig": lambda **kw: AttackConfig(**{"alpha": 0.1, **kw}),
    "ProdaConfig": lambda **kw: ProdaConfig(**{"gamma": 3, **kw}),
    "compute_beta": lambda **kw: compute_beta(**{"alpha": 0.2, "gamma": 3, "epsilon": 1e-5, **kw}),
    "subset_size": lambda **kw: subset_size(**{"n_rows": 40, "alpha_assumed": 0.2, **kw}),
    "trim_defend": lambda **kw: trim_defend(TRIM_DATA, **{"alpha_assumed": 0.2, **kw}),
    "ExperimentSpec": lambda **kw: ExperimentSpec(**{
        "synthetic": SyntheticSpec(d=2, n=40), "defense": "trim", "alpha_grid": (0.1,),
        "repeats": 1, **kw}),
    "run_sweep": lambda **kw: next(harness.run_sweep(BUILDERS["ExperimentSpec"](), **kw)),
}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("builder,setting,value", [
    ("SyntheticSpec", "d", 2.5), ("SyntheticSpec", "d", True), ("SyntheticSpec", "noise_std", True),
    ("SyntheticSpec", "n", 2.5), ("SyntheticSpec", "n", True),
    ("SyntheticSpec", "seed", 2.5), ("SyntheticSpec", "seed", True),
    ("poison_count", "alpha", True), ("poison_count", "n_clean", 2.5),
    ("poison_count", "n_clean", True),
    ("AttackConfig", "alpha", NAN), ("AttackConfig", "alpha", True),
    ("AttackConfig", "eps_conv", NAN), ("AttackConfig", "eps_conv", INF),
    ("AttackConfig", "eps_conv", True), ("AttackConfig", "max_outer_iters", 2.5),
    ("AttackConfig", "max_outer_iters", True), ("AttackConfig", "seed", 2.5),
    ("AttackConfig", "seed", True), ("AttackConfig", "seed", -1),
    ("AttackConfig", "n_poison", 2.5), ("AttackConfig", "n_poison", True),
    ("AttackConfig", "n_poison", -1),
    ("ProdaConfig", "gamma", True), ("ProdaConfig", "epsilon", NAN),
    ("ProdaConfig", "epsilon", True), ("ProdaConfig", "alpha_assumed", True),
    ("ProdaConfig", "seed", 2.5), ("ProdaConfig", "seed", True), ("ProdaConfig", "seed", -1),
    ("compute_beta", "alpha", NAN), ("compute_beta", "alpha", True),
    ("compute_beta", "epsilon", NAN), ("compute_beta", "epsilon", True),
    ("compute_beta", "gamma", 2.5), ("compute_beta", "gamma", True),
    ("subset_size", "alpha_assumed", True),
    ("trim_defend", "max_iters", 2.5), ("trim_defend", "max_iters", True),
    ("trim_defend", "seed", 2.5), ("trim_defend", "seed", True), ("trim_defend", "seed", -1),
    ("ExperimentSpec", "alpha_assumed", NAN), ("ExperimentSpec", "alpha_assumed", True),
    ("ExperimentSpec", "repeats", 2.5), ("ExperimentSpec", "repeats", True),
    ("ExperimentSpec", "master_seed", 2.5), ("ExperimentSpec", "master_seed", True),
    ("ExperimentSpec", "max_features", 2.5), ("ExperimentSpec", "max_features", True),
    ("ExperimentSpec", "train_subsample", 2.5), ("ExperimentSpec", "train_subsample", True),
    ("ExperimentSpec", "surrogate_fraction", INF), ("ExperimentSpec", "surrogate_fraction", True),
    ("ExperimentSpec", "rho", INF), ("ExperimentSpec", "rho", True),
    ("ExperimentSpec", "defense_max_iters", 2.5), ("ExperimentSpec", "defense_max_iters", True),
    ("run_sweep", "jobs", 0), ("run_sweep", "jobs", -3), ("run_sweep", "jobs", True),
    ("run_sweep", "jobs", 2.5),
])
def test_every_setting_is_checked_where_it_is_built(builder, setting, value):
    # a count is an integer >= its minimum, a real setting a number in its
    # interval, and a bool neither; the message names the setting (compute_beta's
    # alpha is Proda's alpha_assumed)
    with pytest.raises(ValueError, match=f"^{setting}"):
        BUILDERS[builder](**{setting: value})


@pytest.mark.parametrize("builder,settings", [
    ("SyntheticSpec", dict(d=np.int64(2), noise_std=0, seed=np.uint8(3))),
    ("SyntheticSpec", dict(noise_std=np.float32(0.5))),
    ("poison_count", dict(n_clean=np.int32(0), alpha=np.float64(0.5))),
    ("AttackConfig", dict(alpha=0.2, eps_conv=1, max_outer_iters=np.int64(1), seed=0,
                          n_poison=0)),
    ("ProdaConfig", dict(gamma=np.int64(3), epsilon=np.float64(0.5), alpha_assumed=0, seed=0)),
    ("trim_defend", dict(alpha_assumed=0, max_iters=np.int64(1), seed=np.int64(0))),
    ("ExperimentSpec", dict(alpha_assumed=0.0, repeats=np.int64(1), max_features=1,
                            train_subsample=1, surrogate_fraction=1, rho=0,
                            defense_max_iters=1, lambda_policy=np.int64(1))),
    ("ExperimentSpec", dict(rho=1.0, surrogate_fraction=np.float64(1e-9),
                            lambda_policy=np.float32(0.1))),
    ("run_sweep", dict(jobs=np.int64(1))),
])
def test_settings_at_their_closed_ends_and_numpy_numbers_build(builder, settings):
    BUILDERS[builder](**settings)


def test_fixed_ranges_are_checked_by_the_two_rules():
    # `data._integer` and `data._within` hold the range rule of every count and
    # real setting. A raise under a comparison of a parameter, a field or a
    # named option (the CLI's `opts["seed"]` or `opts.get("seed")`) with a
    # number, anywhere else in these modules, would write a rule of its own
    def is_setting(node, params):
        named = (isinstance(node, ast.Subscript) and node.slice
                 or isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".get")
                 and node.args and node.args[0])
        return (isinstance(node, ast.Name) and node.id in params
                or ast.unparse(node).startswith("self.")
                or isinstance(named, ast.Constant) and isinstance(named.value, str))

    def compares_a_setting_with_a_number(test, params):
        for node in ast.walk(test):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            number = any(isinstance(o, ast.Constant) and type(o.value) in (int, float)
                         or ast.unparse(o) == "math.inf" for o in operands)
            if number and any(is_setting(o, params) for o in operands):
                return True
        return False

    found = []
    for module in ("data", "attack", "defend", "harness", "cli"):
        for func in ast.walk(parsed(PACKAGE)[module]):
            if not isinstance(func, ast.FunctionDef) or func.name in ("_integer", "_within"):
                continue
            params = {a.arg for a in (*func.args.args, *func.args.kwonlyargs)}
            # a local bound to a setting, straight or through a conversion
            # such as `float(opts["lam"])`, is that setting
            params |= {node.targets[0].id for node in ast.walk(func)
                       if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                       and any(is_setting(value, params) for value in (
                           node.value, *(node.value.args if isinstance(node.value, ast.Call)
                                         else ())))}
            found += [f"{module}.{func.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.If)
                      and any(isinstance(line, ast.Raise) for line in node.body)
                      and compares_a_setting_with_a_number(node.test, params)]
    assert found == []
