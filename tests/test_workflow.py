"""The CI workflow names suites and benchmark workloads that exist.  A step
that names a renamed suite or workload fails only when a runner runs it, so
the names are read off the workflow file here, with a regex (no YAML
parser), and checked against the code."""

import importlib.util
import pathlib
import re

from thetacoble import suites

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
RUN_PY = ROOT / "perfbench" / "run.py"


def _named(pattern: str) -> list[str]:
    """Each name the pattern captures in the workflow, quotes stripped."""
    return [name.strip("\"'") for name in re.findall(pattern, WORKFLOW.read_text())]


def _accepted_workloads(monkeypatch) -> tuple[str, ...]:
    """The --workload choices of perfbench/run.py, which imports its
    sibling tracer module by name."""
    monkeypatch.syspath_prepend(str(RUN_PY.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def test_verify_steps_name_suites():
    names = _named(r"thetacoble verify (\S+)")
    assert names, "no `thetacoble verify` step found"
    unknown = sorted(set(names) - set(suites.SUITES) - {"all"})
    assert not unknown, f"the workflow verifies unknown suites {unknown}"


def test_benchmark_steps_name_workloads(monkeypatch):
    names = _named(r"perfbench/run\.py\b[^\n]*?--workload[ =](\S+)")
    assert names, "no `perfbench/run.py --workload` step found"
    unknown = sorted(set(names) - set(_accepted_workloads(monkeypatch)))
    assert not unknown, f"the workflow benchmarks unknown workloads {unknown}"
