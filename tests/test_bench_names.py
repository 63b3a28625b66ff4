"""The names that the benchmark rebinds to time the program's layers.

``bench/workloads.py`` records its spans by rebinding module-held functions
(``TRACED``) and the LAPACK calls that ``qmpemba.spectral`` reaches through
its ``sla`` name (``KERNELS``).  A rename in the package would otherwise only
show when the benchmark itself runs.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from qmpemba import spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"

pytestmark = pytest.mark.skipif(
    not (BENCH / "workloads.py").is_file(), reason="checkout has no bench/"
)


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_traced_names_exist(workloads):
    missing = [
        f"qmpemba{'.' + holder if holder else ''}.{attr}"
        for _, attr, holders in workloads.TRACED
        for holder in holders
        if not hasattr(workloads._holder(holder), attr)
    ]
    assert not missing


def test_kernel_names_exist(workloads):
    missing = [attr for _, attr in workloads.KERNELS if not hasattr(spectral.sla, attr)]
    assert not missing
