"""In-memory span tracer that wraps poisonbench's public functions from outside.

Every wrapped call records one span: name, start, end, parent span and unit
id. Spans live in flat arrays and are written out once, at the end. A
layer's self time is its spans' duration minus the part their child spans
cover.

`from .regress import fit` binds `fit` into the importing module, so
patching `poisonbench.regress.fit` alone misses the calls made from
`attack`, `defend`, `harness` and `cli`. `install` therefore replaces the
function at every attribute of every loaded poisonbench module that holds
it, and `unpatched` proves that no original binding is left.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of each wrapped public function, by layer. Spans are
# named "<layer>.<attribute>". Dataset.take is a method and is patched on
# the class.
TARGETS = {
    "data": ("generate_synthetic", "split_three", "merge", "poison_count", "load_csv", "Dataset.take"),
    "regress": ("fit", "loss", "mse", "select_lambda"),
    "attack": (
        "nopt_attack",
        "opt_attack",
        "objective_gradient",
        "opt_objective_gradient",
        "theta_jacobian",
        "dispersion_objective",
    ),
    "defend": ("proda_defend", "trim_defend", "compute_beta", "estimate_complexity"),
    "harness": (
        "run_sweep",
        "run_cell",
        "load_base_dataset",
        "aggregate",
        "summary_csv",
        "write_records",
        "read_records",
        "emit_plot",
    ),
    "cli": ("main",),
    "svgplot": ("write_line_chart", "render_scatter_fit"),
}

ATTACK_ENTRIES = ("attack.nopt_attack", "attack.opt_attack")
GRADIENTS = ("attack.objective_gradient", "attack.opt_objective_gradient")
CD_FAMILIES = ("lasso", "enet")


def _poisonbench_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "poisonbench" or n.startswith("poisonbench.")]


def _resolve(layer, attr):
    module = importlib.import_module(f"poisonbench.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def patch(layer: str, attr: str, make_wrapper) -> list:
    """Replace poisonbench.<layer>.<attr> with make_wrapper(original) at
    every module attribute bound to it. Returns what `restore` undoes."""
    owner, key = _resolve(layer, attr)
    original = getattr(owner, key)
    wrapper = make_wrapper(original)
    wrapper.__wrapped__ = original
    if owner is not sys.modules[f"poisonbench.{layer}"]:
        setattr(owner, key, wrapper)
        return [(owner, key, original)]
    done = []
    for module in _poisonbench_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                done.append((module, name, original))
                setattr(module, name, wrapper)
    return done


def unpatched(done: list) -> list[str]:
    """Module attributes still bound to a function `patch` replaced."""
    originals = {id(original) for _, _, original in done}
    return [
        f"{module.__name__}.{name}"
        for module in _poisonbench_modules()
        for name, value in vars(module).items()
        if id(value) in originals
    ]


def restore(done: list) -> None:
    for owner, key, original in reversed(done):
        setattr(owner, key, original)


def widen_bounds(bounds: list, state) -> None:
    """Grow [lo, hi] to cover every coordinate of an AttackState's poison."""
    px, py = state.poison.features, state.poison.responses
    bounds[0] = min(bounds[0], float(px.min()), float(py.min()))
    bounds[1] = max(bounds[1], float(px.max()), float(py.max()))


class Tracer:
    """Span recorder plus the work counters read off returned objects."""

    def __init__(self, out_dir: Path | None = None):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.stack: list[int] = []
        self.unit_id = -1
        self.counters: dict[str, float] = {}
        self.errors: list[str] = []
        self.poison_bounds = [np.inf, -np.inf]
        self._fit_calls = 0
        self._patched: list = []
        self._installed = False
        self._fork_hook = False
        self._forked = False
        self._flushes = 0

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def _name(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit.append(self.unit_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if self._forked and not self.stack:
            self.flush()

    def _wrap(self, span: str, fn):
        nid = self._name(span)
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # each resumption is one span, so the consumer's own work between
            # items is not charged to the generator
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                token = before() if before else None
                idx = tracer._enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)
                if after:
                    after(args, kwargs, result, token)
                return result

        return wrapper

    # -- counters read off the arguments and results of wrapped calls --------

    def _after_regress_fit(self, args, kwargs, report, _):
        self._fit_calls += 1
        self.count("fit.calls")
        if report.model.family in CD_FAMILIES:
            self.count("fit.cd_fits")
            self.count("fit.cd_sweeps", report.iterations)
            self.count("fit.nonconverged", not report.converged)
        self.count("fit.fallback", report.fallback)

    def _fits_so_far(self):
        return self._fit_calls

    _before_attack_nopt_attack = _before_attack_opt_attack = _fits_so_far
    _before_defend_proda_defend = _fits_so_far

    def _after_attack_nopt_attack(self, args, kwargs, state, fits_before):
        fits = self._fit_calls - fits_before
        self.count("attack.calls")
        self.count("attack.refits", state.refit_count)
        self.count("attack.outer_iters", state.iterations)
        if fits != state.refit_count:
            self.errors.append(f"attack saw {fits} fits but AttackState.refit_count={state.refit_count}")
        widen_bounds(self.poison_bounds, state)

    _after_attack_opt_attack = _after_attack_nopt_attack

    def _after_defend_proda_defend(self, args, kwargs, result, fits_before):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        expected = self._compute_beta(cfg.alpha_assumed, cfg.gamma, cfg.epsilon)
        fits = self._fit_calls - fits_before
        self.count("proda.calls")
        self.count("proda.trials", result.beta_used)
        # each trial fits its group, then refits the group's n closest rows
        if fits != 2 * expected or result.beta_used != expected:
            self.errors.append(
                f"proda ran {fits} fits and beta_used={result.beta_used}; compute_beta gives {expected}"
            )

    def _after_defend_trim_defend(self, args, kwargs, result, _):
        self.count("trim.calls")
        self.count("trim.iters", result.iterations)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every poisonbench binding; follow forks."""
        from poisonbench.defend import compute_beta

        self._compute_beta = compute_beta
        for layer, attrs in TARGETS.items():
            for attr in attrs:
                span = f"{layer}.{attr.split('.')[-1]}"
                self._patched += patch(layer, attr, lambda fn, span=span: self._wrap(span, fn))
        self._installed = True
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True

    def missed(self) -> list[str]:
        """Module attributes the install left bound to an original."""
        return unpatched(self._patched)

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []
        self._installed = False

    def _after_fork(self) -> None:
        if not self._installed:
            return
        # a forked pool worker records its own spans and writes them after
        # each top-level call, because pool workers exit without atexit
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.unit = array("i"), array("i"), array("i")
        self.stack = []
        self.counters, self.errors = {}, []
        self.poison_bounds = [np.inf, -np.inf]
        self._forked = True
        self._flushes = 0

    # -- output ------------------------------------------------------------

    def flush(self) -> Path:
        """Write the recorded spans and counters to out_dir and clear them."""
        path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        self._flushes += 1
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            meta=np.array(
                json.dumps(
                    {
                        "pid": os.getpid(),
                        "names": self.names,
                        "counters": self.counters,
                        "errors": self.errors,
                        "poison_bounds": self.poison_bounds,
                    }
                )
            ),
        )
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.unit = array("i"), array("i"), array("i")
        self.counters, self.errors = {}, []
        self.poison_bounds = [np.inf, -np.inf]
        return path


class SpanSummary:
    """Per-span-name calls, inclusive and self time, merged over span files."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.errors: list[str] = []
        self.poison_bounds = [np.inf, -np.inf]
        self.spans = 0

    def add_file(self, path: Path) -> None:
        with np.load(path) as f:
            meta = json.loads(str(f["meta"]))
            start, end, name, parent = f["start"], f["end"], f["name"], f["parent"]
        dur = end - start
        if len(dur) and (dur < 0).any():
            self.errors.append(f"{path.name}: span left open")
        # spans nest within one process, so a parent's self time is its
        # duration minus the summed durations of its direct children
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        names = meta["names"]
        for nid in np.unique(name):
            sel = name == nid
            key = names[nid]
            self.calls[key] = self.calls.get(key, 0) + int(sel.sum())
            self.total[key] = self.total.get(key, 0.0) + float(dur[sel].sum())
            self.self_s[key] = self.self_s.get(key, 0.0) + float(self_t[sel].sum())
        for key, value in meta["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.errors.extend(meta["errors"])
        lo, hi = meta["poison_bounds"]
        self.poison_bounds = [min(self.poison_bounds[0], lo), max(self.poison_bounds[1], hi)]
        self.spans += len(dur)

    def table(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        return {
            k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_s[k]}
            for k in sorted(self.calls)
        }

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def sum_of(self, table: dict, keys) -> float:
        return float(sum(table.get(k, 0) for k in keys))
