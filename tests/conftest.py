import sys
import tracemalloc

import pytest

from ntkdistill.network import NetConfig, TrainConfig, train_teacher
from ntkdistill.tasks import Task, TaskSpec


@pytest.fixture(scope="session")
def mixture_teacher():
    """``(task, net, params)``: the 6-mode mixture task, and the 3x64 teacher
    network and its parameters trained long on the task's hard labels (seed
    5, 16,384 epochs).  It is trained once per session; each user wraps the
    parameters in its own ``LabelSource``."""
    task = Task(TaskSpec(kind="mixture", dim=2, modes=6, amplitude=2.0, seed=11))
    net = NetConfig(2, 3, 64)
    params = train_teacher(
        net, task, TrainConfig(0.01, 256, 16384), seed=5,
        checkpoint_epochs=[16384],
    )[16384]
    return task, net, params


@pytest.fixture
def traced_peak():
    """``peak(f)`` calls ``f()`` and returns its result and the most bytes
    it held at once beyond what was held before the call, as tracemalloc
    counts them; numpy reports its array buffers to tracemalloc."""
    def peak(f):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = f()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return peak


def pytest_terminal_summary(terminalreporter):
    # say which golden comparison the smoke tests ran, if they were collected
    pipeline = sys.modules.get("test_pipeline")
    if pipeline is None:
        return
    if pipeline.EXACT_GOLDEN:
        how = "exactly, as written (this numpy/BLAS build matches tests/golden/ENV.json)"
    else:
        how = "to 1e-9 relative (this numpy/BLAS build differs from tests/golden/ENV.json)"
    terminalreporter.write_line(f"golden smoke CSVs compared {how}")
