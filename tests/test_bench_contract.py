"""The benchmark's call contract: a traced run of each perfbench workload
reaches every wrapped function, checks every item, and repeats the exact
work counts.  Each run goes in a copy of perfbench/ (so its traces stay out
of the repository) beside a link to this k3lat's sources."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from k3lat import _exact as ex

from conftest import cap_child_memory

SRC = Path(ex.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

# per workload, the exact counts of its traced pass at seed 1; the search is
# entered only where p divides |A_S| and the trivial H fails, 58 of the
# 3,015 table-sigma1 decisions, and yields one item per order of H from the
# trivial one up: 127 items, for 4,021 candidates in all
EXACT = {
    "table-sigma1": {"k3class.candidates_tried": 4021,
                     "fqf.overlattice_candidates.yields": 127},
    "proot-classify": {"rootsys.group_elements": 25, "prootpair.pseudo_classes": 77},
    "lattice-gram": {"intlat.short_vectors.vectors": 2464},
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """workload -> (stdout, stderr, the JSON object of the last line)."""
    if not (PERFBENCH / "run.py").is_file():
        pytest.skip("perfbench/ is not beside the k3lat sources")
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(PERFBENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    (root / "src").symlink_to(SRC, target_is_directory=True)
    runs = {}
    for workload in EXACT:
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=root, capture_output=True, text=True, timeout=300,
            preexec_fn=cap_child_memory)
        assert res.returncode == 0, res.stderr
        runs[workload] = (res.stdout, res.stderr, json.loads(res.stdout.splitlines()[-1]))
    return runs


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_traced_run_is_correct(traced_runs, workload):
    out, err, last = traced_runs[workload]
    assert "SELF-TEST" not in out + err, err
    assert last["correct"] is True and last["failed"] == 0
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    for name, count in EXACT[workload].items():
        assert metrics[name] == count, name


def test_every_trace_target_is_reached(traced_runs):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    calls = {}
    for _, _, last in traced_runs.values():
        for name, m in last["metrics"].items():
            if name.endswith(".calls"):
                calls[name] = calls.get(name, 0) + m["value"]
    names = [f"{module.lstrip('_')}.{attr}" for module, attr, _ in tracer.TARGETS]
    assert [n for n in names if not calls.get(f"{n}.calls")] == []
