"""Each module imports alone in a fresh interpreter, so an import cycle
cannot hide behind the order in which another module loads them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import viewfilter

PACKAGE = Path(viewfilter.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


def _import_alone(module):
    """The modules loaded by importing one package module in a fresh interpreter."""
    code = f"import sys, viewfilter.{module}; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    assert f"viewfilter.{module}" in _import_alone(module)


def test_the_model_loads_neither_the_store_nor_the_workflow():
    loaded = _import_alone("model")
    assert "viewfilter.store" not in loaded
    assert "viewfilter.changes" not in loaded


@pytest.mark.parametrize("module", ["cli", "service"])
def test_an_entry_point_loads_neither_dataclasses_nor_inspect(module):
    # The records are built by viewfilter.records; dataclasses would also load
    # inspect, ast, dis and tokenize before every CLI command does any work.
    assert {"dataclasses", "inspect"}.isdisjoint(_import_alone(module))


@pytest.mark.parametrize("module", ["cli", "service"])
def test_an_entry_point_loads_no_http_server_client_email_or_ssl(module):
    # The service reads requests itself; http.server would load http.client,
    # email and ssl (OpenSSL) into every serve process.
    assert {"http.server", "http.client", "email", "ssl"}.isdisjoint(_import_alone(module))
