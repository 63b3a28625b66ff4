from __future__ import annotations

import numpy as np
import pytest

from qmpemba import (
    AllToAllParams,
    DickeParams,
    LindbladModel,
    all_to_all_model,
    build_liouvillian,
    decompose,
    dicke_model,
)

DICKE_REF = DickeParams(omega=1.0, g=1.0, kappa=1.0, Omega=1.0)
ALL_TO_ALL_REF = AllToAllParams(Delta=-1.0, V=3.0, kappa=1.0, Omega=1.0)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def qubit_decay_model(kappa: float = 1.0) -> LindbladModel:
    return LindbladModel(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=(np.sqrt(kappa) * SIGMA_MINUS,),
        label="qubit-decay",
    )


def random_density(d: int, rng) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(d: int, rng) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_lindblad_model(d: int, n_jumps: int, rng, planted: bool = False) -> LindbladModel:
    """Dense random jumps and Hamiltonian, or with planted parity of i - j.

    Planted: H only on even i - j and jumps only on odd i - j, so the
    generator maps |i><j| only onto |a><b| with a - b of the parity of i - j.
    """
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_jumps)]
    h = random_hermitian(d, rng)
    if planted:
        i, j = np.indices((d, d))
        even = (i - j) % 2 == 0
        h = np.where(even, h, 0)
        jumps = [np.where(even, 0, jump) for jump in jumps]
    return LindbladModel(hamiltonian=h, jumps=tuple(jumps))


@pytest.fixture(scope="session")
def dicke6():
    model = dicke_model(DICKE_REF, 6)
    return model, decompose(build_liouvillian(model))


@pytest.fixture(scope="session")
def all_to_all6():
    model = all_to_all_model(ALL_TO_ALL_REF, 6)
    return model, decompose(build_liouvillian(model))


@pytest.fixture(scope="session")
def both_models6(dicke6, all_to_all6):
    return {"dicke": dicke6, "all-to-all": all_to_all6}
