import sys


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
