"""Child interpreters started by the tests import weakcomm from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; the tests that run ``python -m weakcomm`` need it in the environment.

The BLAS behind NumPy runs on one thread, as in perfbench's children: a
multi-threaded BLAS starts its threads when NumPy is imported, and a
``verify_suite`` call in a process with more than one thread checks its
pairs without forking workers. This module is loaded before any test
module imports NumPy.

``fresh_proofs`` installs an empty proof table, so a test sees the claims
enumerated and the plans built that the table would otherwise keep from
earlier tests.
"""

import os
from pathlib import Path

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def fresh_proofs(monkeypatch):
    """An empty proof table, installed as verify_suite's for the test."""
    from weakcomm import identities

    table = identities._ProofTable()
    monkeypatch.setattr(identities, "_PROOFS", table)
    return table
