"""Smoke tests: every example script runs to completion."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_example(name, *args, timeout=240, cwd=None):
    # Put src on PYTHONPATH as an *absolute* path: the inherited value
    # may be relative (e.g. "src"), which breaks when cwd is elsewhere.
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=env,
    )


def test_quickstart():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "Done." in result.stdout
    assert "transitive ancestors" in result.stdout


def test_virtual_call_resolution():
    result = run_example("virtual_call_resolution.py")
    assert result.returncode == 0, result.stderr
    assert "A.foo()" in result.stdout and "B.bar()" in result.stdout


def test_whole_program_analysis():
    result = run_example("whole_program_analysis.py", "javac-s")
    assert result.returncode == 0, result.stderr
    assert "verified against the naive oracles" in result.stdout


def test_pointsto_multiplicity():
    result = run_example("pointsto_multiplicity.py", "javac-s")
    assert result.returncode == 0, result.stderr
    assert "bit-exact against the oracle" in result.stdout
    assert "all aggregates verified against the tuple oracle." in result.stdout


def test_domain_assignment_errors():
    result = run_example("domain_assignment_errors.py")
    assert result.returncode == 0, result.stderr
    assert "Conflict between" in result.stdout
    assert "supertype:T3" in result.stdout or "T3" in result.stdout


def test_profiling_demo(tmp_path):
    # run in a scratch directory: the demo writes ./profile_report/
    result = run_example("profiling_demo.py", cwd=str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "overall profile view" in result.stdout
    assert "browsable report" in result.stdout
    assert (tmp_path / "profile_report" / "index.html").exists()


def test_relational_shell_session():
    result = run_example("relational_shell_session.py")
    assert result.returncode == 0, result.stderr
    assert "jedd>" in result.stdout
    assert "2" in result.stdout  # size up2


def test_generated_code_is_deterministic():
    """jeddc output is stable: compiling the same source twice gives
    byte-identical Python (required for reproducible builds)."""
    from repro.jedd import compile_source, generate
    from tests.jedd.helpers import FIGURE4

    first = compile_source(FIGURE4)
    second = compile_source(FIGURE4)
    assert generate(first.tp, first.assignment) == generate(
        second.tp, second.assignment
    )
