"""Each CLI command imports only what it runs (see ``tabreduce.cli``).

Checked in fresh interpreters, since this test process has imported the
whole package already."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tabreduce import dataio

SRC = Path(__file__).resolve().parent.parent / "src"

# What importing ``tabreduce.cli`` must not load: numpy, the HTTP stack and
# thread pool of ``qa --endpoint``, and the policy layer.
NOT_AT_START = (
    "numpy", "urllib.request", "http.client", "ssl", "concurrent.futures",
    "tabreduce.policy", "tabreduce.tasks", "tabreduce.training", "tabreduce.rewards",
)


def loaded_after(code, cwd):
    """The modules of ``NOT_AT_START`` loaded once ``code`` has run in a
    fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({NOT_AT_START!r}) & set(sys.modules))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_cli_loads_neither_numpy_nor_endpoint_stack_nor_policy(tmp_path):
    assert loaded_after("import tabreduce.cli", tmp_path) == []


def test_annotate_qa_mock_and_report_never_load_numpy(tmp_path):
    cfg = dataio.SynthConfig(n_instances=6, columns_range=(3, 4), rows_range=(3, 6), seed=5, annotate=False)
    dataio.save_dataset(dataio.generate_synthetic(cfg), tmp_path / "data.jsonl")
    commands = [
        ["annotate", "--in", "data.jsonl", "--out", "annotated.jsonl"],
        ["qa", "--data", "annotated.jsonl", "--out", "answers.jsonl", "--mock", "--context", "gold"],
        ["report", "--answers", "answers.jsonl", "--reductions", "annotated.jsonl", "--buckets", "0,40",
         "--out", "report.json"],
    ]
    code = "from tabreduce import cli\n" + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in commands)
    assert loaded_after(code, tmp_path) == []
    assert json.loads((tmp_path / "report.json").read_text())["count"] == 6
