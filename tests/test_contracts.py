"""The README's run contracts as properties of every experiment kind, on the
seven smoke configs of ``test_pipeline.py``."""

import json

import pytest

from ntkdistill.experiments import run
from test_pipeline import SMOKE_CASES, _csv_without_wall_ms, _tiny_fig2_config


@pytest.mark.parametrize("kind", list(SMOKE_CASES))
def test_threads_leave_every_output_unchanged(tmp_path, kind):
    # --threads 2 writes the CSV of --threads 1 byte for byte, wall_ms
    # aside, and the same manifest
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_fig2_config(kind, **SMOKE_CASES[kind])))
    outputs = []
    for threads in (1, 2):
        status, (csv_path, manifest_path) = run(path, out_dir=tmp_path / str(threads),
                                                threads=threads)
        assert status == 0
        with open(manifest_path, "rb") as fh:
            outputs.append((_csv_without_wall_ms(csv_path), fh.read()))
    assert len(outputs[0][0]) > 1
    assert outputs[0] == outputs[1]
