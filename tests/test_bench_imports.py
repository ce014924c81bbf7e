"""Every benchmark module under ``benchmarks/`` imports.

CI runs only some of the ``bench_*.py`` modules, so a bench that imports
a name the library no longer has would otherwise go unnoticed until its
table is regenerated.  Importing a bench defines its functions and runs
none of them.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
BENCHES = sorted(path.stem for path in BENCHMARKS.glob("bench_*.py"))


def test_benches_are_found():
    assert BENCHES, BENCHMARKS


@pytest.mark.parametrize("name", BENCHES)
def test_bench_module_imports(name, monkeypatch):
    # The benches import ``report`` from ``benchmarks/conftest.py`` as the
    # top-level module ``conftest``.  Whatever held that name before is
    # put back afterwards, and the bench itself is not left registered.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    saved = {key: sys.modules.pop(key)
             for key in ("conftest", name) if key in sys.modules}
    try:
        spec = importlib.util.spec_from_file_location(
            name, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        assert any(key.startswith("test_") for key in vars(module)), name
    finally:
        for key in ("conftest", name):
            sys.modules.pop(key, None)
        sys.modules.update(saved)
