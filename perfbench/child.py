"""Fresh-process roles of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <groups> <out_dir>
        Prints the seconds from before `import poisonbench` until the
        workload's inputs are ready, then the seconds of one speed probe
        (refclock.py) run in this process just after.

    python3 perfbench/child.py cli <trace_dir|-> <poisonbench arguments...>
        Runs poisonbench's command line in this process and exits with its
        code. With a trace directory, every public function is traced
        first, and this process and its forked pool workers write their
        spans there.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload: str, seed: str, groups: str, out_dir: str) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    if workload == "sweep-cli":
        import poisonbench.cli  # noqa: F401 - the CLI child imports it before parsing
    workloads.build(workload, int(seed), int(groups), Path(out_dir))
    seconds = time.perf_counter() - T0
    import refclock

    print(repr(seconds), repr(refclock.probe()))
    return 0


def cli(trace_dir: str, *argv: str) -> int:
    sys.path.insert(0, str(SRC))
    import poisonbench.cli

    if trace_dir == "-":
        return poisonbench.cli.main(list(argv))
    from tracer import Tracer

    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(out)
    tracer.install()
    tracer.errors.extend(f"not patched: {name}" for name in tracer.missed())
    try:
        return poisonbench.cli.main(list(argv))
    finally:
        tracer.uninstall()
        tracer.flush()


if __name__ == "__main__":
    role, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": cli}[role](*rest))
