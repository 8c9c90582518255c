"""Each CLI command imports only what it runs (see ``tabreduce.cli``).

Checked in fresh interpreters, since this test process has imported the
whole package already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tabreduce import annotate, cli, dataio

SRC = Path(__file__).resolve().parent.parent / "src"

# What importing ``tabreduce.cli`` must not load: numpy, the HTTP stack and
# thread pool of ``qa --endpoint``, and the policy layer.
NOT_AT_START = (
    "numpy", "urllib.request", "http.client", "ssl", "concurrent.futures",
    "tabreduce.policy", "tabreduce.tasks", "tabreduce.training", "tabreduce.rewards",
)

# The layers that only some commands run, each loaded by the command that runs it.
LAYERS = ("tabreduce.annotate", "tabreduce.llm", "tabreduce.metrics", "tabreduce.sql", "hashlib")


def loaded_after(code, cwd, names=NOT_AT_START):
    """The modules of ``names`` loaded once ``code`` has run in a fresh
    interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({names!r}) & set(sys.modules))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_cli_loads_neither_numpy_nor_endpoint_stack_nor_policy(tmp_path):
    assert loaded_after("import tabreduce.cli", tmp_path) == []


def test_import_cli_loads_no_layer_of_a_single_command(tmp_path):
    """Neither ``annotate``, ``llm``, ``metrics`` nor ``sql``, and no
    ``hashlib`` beyond what a bare interpreter holds."""
    bare = loaded_after("pass", tmp_path, LAYERS)
    assert loaded_after("import tabreduce.cli", tmp_path, LAYERS) == bare


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


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """Raw, annotated and answered data for one run of each command."""
    root = tmp_path_factory.mktemp("startup")
    cfg = dataio.SynthConfig(n_instances=6, columns_range=(3, 4), rows_range=(3, 6), seed=5, annotate=False)
    raw = dataio.generate_synthetic(cfg)
    dataio.save_dataset(raw, root / "data.jsonl")
    dataio.save_dataset(annotate.annotate_dataset(raw)[0], root / "annotated.jsonl")
    argv = ["qa", "--data", str(root / "annotated.jsonl"), "--out", str(root / "answers.jsonl"), "--mock"]
    assert cli.main(argv) == 0
    return root


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["annotate", "--in", "data.jsonl", "--out", "annotate-out.jsonl"], ["tabreduce.annotate", "tabreduce.sql"]),
        (["qa", "--data", "annotated.jsonl", "--out", "qa-out.jsonl", "--mock"], ["tabreduce.llm", "tabreduce.sql"]),
        (["report", "--answers", "answers.jsonl", "--reductions", "annotated.jsonl", "--buckets", "0,40",
          "--out", "report-out.json"], ["tabreduce.metrics", "tabreduce.sql"]),
    ],
    ids=["annotate", "qa-mock", "report"],
)
def test_each_command_loads_only_its_layers(stage_inputs, argv, layers):
    """``annotate`` loads no ``llm``, ``metrics`` or ``hashlib``; ``qa
    --mock`` no ``annotate``, ``metrics`` or ``hashlib``; ``report`` no
    ``annotate``, ``llm`` or ``hashlib``."""
    bare = loaded_after("pass", stage_inputs, LAYERS)
    code = f"from tabreduce import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_after(code, stage_inputs, LAYERS) == sorted({*layers, *bare})
