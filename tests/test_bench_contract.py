"""The end-to-end benchmark must keep seeing the d-bounded path.

``bench_e2e/`` times the program from outside, by rebinding the entry
points ``bench_e2e/tracing.py`` lists; its traced run exits 1 when a
layer a workload must exercise reads zero.  A change that inlines,
renames or memoizes one of those entry points passes every other test
and then fails as a benchmark submission -- so the two ``star_d2`` runs
and the entry-point list are checked here, in tier-1.  ``bench_e2e/`` is
read, never edited.
"""

import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench_e2e")


@pytest.mark.parametrize("trace", [1, 0])
def test_star_d2_smoke_run_passes(trace, tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "star_d2", "--smoke", "--trace", str(trace), "--out",
         str(tmp_path / "run.json")],
        env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-1500:] + done.stderr[-1500:]


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location(
        "bench_e2e_tracing", os.path.join(BENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _kind, name, owner, attr in tracing._entry_points():
        if attr:
            # patched on the class: an inherited method would be timed
            # under the parent's name only
            assert attr in vars(owner), f"{name}: {owner.__name__}.{attr}"
        else:
            # rebound in every module global that holds it, so it has to
            # be a module-level function reachable under its own name
            assert inspect.isfunction(owner), name
            module = sys.modules[owner.__module__]
            assert vars(module).get(owner.__name__) is owner, name
