"""The benchmark's workloads (perfbench/workloads.py) run against the package:
an API change they rely on fails here, not only as a failed benchmark run."""

from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workloads.warm_up()
    return workloads


@pytest.mark.parametrize("name, solves", [("converge-ex2_1-8-48", 1), ("scan-small", 48)])
def test_one_pass_of_each_benchmark_workload(workloads, tmp_path, name, solves):
    workload = workloads.WORKLOADS[name](str(tmp_path), np.random.default_rng(0))
    result = workload.run_pass()
    assert result.errors == [] and result.failed == 0
    assert result.gates and all(result.gates.values())
    assert result.attempted == solves
