"""Smoke tests for the example scripts.

Each example must import cleanly and expose a ``main``; three run
end-to-end in a subprocess so regressions in the public API surface
they exercise are caught.  The function rule of tests/test_registry.py
(``_examples``) also calls ``main()`` of every example but
capacity_planning (~7 s under its recorder) and serve_loopback (a live
run; the rule's own ``verify`` leg serves the same scenario), and fails
naming the one that raised.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_module(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStructure:
    def test_expected_examples_present(self):
        assert "quickstart.py" in ALL_EXAMPLES
        assert len(ALL_EXAMPLES) >= 3

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_imports_and_has_main(self, name):
        module = load_module(name)
        assert callable(getattr(module, "main", None)), (
            f"{name} must expose a main() entry point"
        )

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_has_module_docstring(self, name):
        module = load_module(name)
        assert module.__doc__ and len(module.__doc__) > 80


class TestEndToEnd:
    @pytest.mark.parametrize(
        "name", ["quickstart.py", "failover_drm.py", "capacity_planning.py"]
    )
    def test_runs_to_completion(self, name):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "utilization" in proc.stdout.lower()
