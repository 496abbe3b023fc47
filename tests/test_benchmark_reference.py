"""One pass of every benchmark workload matches its recorded reference.

``perfbench/workloads.py`` checks each pass's outputs (CSV hashes, exact
results, invariants) against ``perfbench/reference.json`` at the default
seed and full scale. Running one pass of each here makes a change that moves
an output byte fail the suite, not only the benchmark. The benchmark files
are only read and executed (never imported through the import system, so no
bytecode is written next to them), and ``sys.modules`` is restored after.
"""

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _exec_module(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads() -> types.ModuleType:
    # workloads.py imports the host-speed probe by its bare name.
    saved = sys.modules.get("hostspeed")
    sys.modules["hostspeed"] = _exec_module("hostspeed")
    try:
        return _exec_module("workloads")
    finally:
        if saved is None:
            del sys.modules["hostspeed"]
        else:
            sys.modules["hostspeed"] = saved


@pytest.mark.parametrize("name", ["sweep", "corpus", "denoise", "population"])
def test_one_pass_matches_the_reference(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "full", tmp_path)
    assert wl.ref is not None
    assert wl.check(wl.run_unit()) == []
    assert wl.finish()[1] == []
