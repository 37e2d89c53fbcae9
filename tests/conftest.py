import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poisonbench
from poisonbench.data import Dataset

# the directory holding the package this session imports
SRC = str(Path(poisonbench.__file__).resolve().parents[1])


def run_python(args, env=None, **kwargs):
    """`sys.executable` with `args` in a fresh interpreter, with SRC in front
    of the PYTHONPATH of `env` (default: this process's environment), its
    output captured as text; other keyword arguments go to subprocess.run."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


@pytest.fixture
def line_dataset():
    """Noiseless y = x for d=1; interpolated exactly by OLS."""
    x = np.linspace(0.0, 1.0, 12).reshape(-1, 1)
    return Dataset(x.copy(), x[:, 0].copy())


def make_noisy_dataset(n=50, d=3, noise=0.05, seed=0):
    """Random linear data inside the unit box with Gaussian noise."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    w = rng.uniform(-0.5, 0.5, size=d)
    y = np.clip(x @ w + 0.4 + rng.normal(0.0, noise, size=n), 0.0, 1.0)
    return Dataset(x, y)


def write_collinear_csv(path):
    """150 rows a, b = a + N(0, 1e-3^2), c, y = 0.5 a - 0.3 c + 0.2 + N(0, 0.05^2):
    LASSO at lambda = 1e-4 runs out of coordinate-descent sweeps on it."""
    rng = np.random.default_rng(0)
    a = rng.uniform(size=150)
    b = a + rng.normal(0.0, 1e-3, size=150)
    c = rng.uniform(size=150)
    y = 0.5 * a - 0.3 * c + 0.2 + rng.normal(0.0, 0.05, size=150)
    rows = ["a,b,c,y"] + [",".join(repr(float(v)) for v in row) for row in zip(a, b, c, y)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
