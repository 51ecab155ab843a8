"""Backend name and warm-up hook, read by perfbench/child.py.

perfbench/tracer.py imports this module as a layer, so it goes with the
next change to the benchmark; reference.dense_oracle evaluates its own batch.
"""


def active_backend() -> str:
    """Name of the kernel implementation (numpy is the only one)."""
    return "numpy"


def warmup() -> None:
    """Nothing to compile; kept for harnesses that warm up before timing."""
