"""Exact Fock-basis reference propagation for system+bath Hamiltonians.

Brute-force companion to the variational propagator: every mode is truncated
at an explicit occupation cutoff and the Hamiltonian is assembled as a sparse
operator over |system label> x |v_1 ... v_Nb>.  `FockSpace.trajectory` is the
one exact single-state propagation for every Hamiltonian, lossy or not, at
any dimension: `expm_multiply` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)) applies the exponential of the sparse operator over evenly
spaced times, and no dense matrix is built.  `FockSpace.propagate` wraps it
as the exact twin of `varprop.propagate`.  Exponential scaling restricts
this to a handful of modes, which is exactly its role -- an independent
check, not a production path.  `DensePropagator` is a dense reference for
small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .constants import HBAR_EV_FS
from .models import SystemBathHamiltonian


def _on_mode(op, dims, q: int):
    """Single-mode operator on the bath space of mode dimensions `dims`."""
    before = int(np.prod(dims[:q], dtype=np.int64))
    after = int(np.prod(dims[q + 1:], dtype=np.int64))
    return sp.kron(sp.kron(sp.identity(before), op), sp.identity(after))


@dataclass(frozen=True)
class FockSpace:
    """Product basis |system> x |v_1..v_Nb> with per-mode cutoffs."""

    n_sys: int
    cutoffs: tuple[int, ...]

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        return self.n_sys * int(np.prod(self.mode_dims, dtype=np.int64))

    def sparse_hamiltonian(self, h: SystemBathHamiltonian) -> sp.csr_matrix:
        """H as a sparse matrix on the product basis (system label slowest)."""
        if h.n_sys != self.n_sys or h.n_modes != len(self.cutoffs):
            raise ValueError("Hamiltonian does not fit this Fock space")
        dims = self.mode_dims
        out = sp.kron(h.e_sys, sp.identity(self.dim // self.n_sys), format="csr")
        for q, d in enumerate(dims):
            a = _on_mode(sp.diags(np.sqrt(np.arange(1.0, d)), 1), dims, q)
            number = _on_mode(sp.diags(np.arange(float(d))), dims, q)
            out = out + h.mode_freqs[q] * sp.kron(sp.identity(self.n_sys), number)
            out = out + sp.kron(h.coup_create[:, :, q], a.T)
            out = out + sp.kron(h.coup_annihilate[:, :, q], a)
        return out.tocsr()

    def hamiltonian(self, h: SystemBathHamiltonian) -> np.ndarray:
        return self.sparse_hamiltonian(h).toarray()

    def trajectory(self, h: SystemBathHamiltonian, psi0: np.ndarray,
                   times) -> np.ndarray:
        """exp(-iHt/hbar) psi0 at each of two or more evenly spaced `times`,
        shape (len(times), dim); other times raise ValueError."""
        return _evolve(self.sparse_hamiltonian(h), psi0, times)

    def propagate(self, h: SystemBathHamiltonian, state, times):
        """Exact twin of `varprop.propagate`: `state` expanded in this basis,
        renormalized after the truncation and evolved as by `trajectory`;
        the sampled states are returned under their operator, from which
        the observables are computed when read."""
        op = self.sparse_hamiltonian(h)
        psi0 = self.multiconfig_vector(state.amplitudes, state.displacements)
        states = _evolve(op, psi0 / np.linalg.norm(psi0), times)
        return FockTrajectory(self, np.asarray(times, float), states, op)

    def coherent_bath_vector(self, f: np.ndarray) -> np.ndarray:
        """Normalized coherent state prod_q |f_q> over the bath modes."""
        out = np.ones(1, dtype=complex)
        for fq, c in zip(f, self.cutoffs):
            v = np.arange(c + 1)  # f^v / sqrt(v!), with 0^0 = 1
            out = np.kron(out, np.exp(-0.5 * abs(fq) ** 2) * complex(fq) ** v
                          / np.sqrt(np.cumprod(np.maximum(v, 1.0))))
        return out

    def multiconfig_vector(self, amplitudes: np.ndarray, displacements: np.ndarray) -> np.ndarray:
        """Dense vector of sum_{m,n} A_mn |n> x |f_m> (normalized coherent
        states); amplitudes (M, n_sys), displacements (M, n_modes)."""
        out = np.zeros(self.dim, dtype=complex)
        for a, f in zip(amplitudes, displacements):
            out += np.kron(a, self.coherent_bath_vector(f))
        return out

    def system_populations(self, psi: np.ndarray) -> np.ndarray:
        """Population of each system label; psi may carry leading axes."""
        probs = np.abs(psi.reshape(psi.shape[:-1] + (self.n_sys, -1))) ** 2
        return probs.sum(axis=-1)

    def mode_occupations(self, psi: np.ndarray) -> np.ndarray:
        """<b_q^+ b_q> of each mode q on the last axis; psi may carry
        leading axes."""
        probs = np.abs(psi.reshape(psi.shape[:-1] + (self.n_sys, -1))) ** 2
        occupied = np.indices(self.mode_dims).reshape(len(self.cutoffs), -1)
        return probs.sum(axis=-2) @ occupied.T


@dataclass(frozen=True)
class FockTrajectory:
    """Sampled exact states, (T, dim), under the sparse operator `op`, with
    the observables of a `varprop.Trajectory`: `times`, `norm()`, complex
    `energies()` <psi|H|psi>, `system_populations()` and
    `mode_occupations()`."""

    fock: FockSpace
    times: np.ndarray
    states: np.ndarray
    op: sp.csr_matrix

    def norm(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def energies(self) -> np.ndarray:
        # 64 samples at a time: op @ psi never holds all of them
        return np.concatenate([
            np.einsum("ti,it->t", s.conj(), self.op @ s.T)
            for s in np.split(self.states, range(64, len(self.states), 64))])

    def system_populations(self) -> np.ndarray:
        return self.fock.system_populations(self.states)

    def mode_occupations(self) -> np.ndarray:
        return self.fock.mode_occupations(self.states)


def _evolve(op, psi0: np.ndarray, times) -> np.ndarray:
    """exp(-i op t/hbar) psi0 at each of two or more evenly spaced `times`."""
    times = np.asarray(times, float)
    if len(times) < 2 or not np.allclose(
            times, np.linspace(times[0], times[-1], len(times)), rtol=0.0, atol=1e-9):
        raise ValueError("Fock propagation needs two or more evenly spaced times")
    return expm_multiply((-1j / HBAR_EV_FS) * op, psi0, start=times[0],
                         stop=times[-1], num=len(times), endpoint=True)


class DensePropagator:
    """exp(-iHt/hbar) through a one-time eigendecomposition of a dense
    matrix: `eigh` when `hermitian`, which the matrix must then be exactly
    (else ValueError), `eig` plus an inverse otherwise."""

    def __init__(self, h_matrix: np.ndarray, hermitian: bool = True):
        if hermitian:
            if not np.array_equal(h_matrix, h_matrix.conj().T):
                raise ValueError("hermitian=True needs an exactly Hermitian "
                                 "matrix; pass hermitian=False")
            self.vals, self.vecs = np.linalg.eigh(h_matrix)
            self.vinv = self.vecs.conj().T
        else:
            self.vals, self.vecs = np.linalg.eig(h_matrix)
            self.vinv = np.linalg.inv(self.vecs)

    def trajectory(self, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
        coeff = self.vinv @ psi
        phases = np.exp(-1j * np.outer(np.asarray(times, float), self.vals) / HBAR_EV_FS)
        return (phases * coeff[None, :]) @ self.vecs.T


def thermal_fock_weights(omega: float, beta: float, cutoff: int) -> np.ndarray:
    """Boltzmann weights exp(-beta*omega*v)/Z on the truncated ladder."""
    if omega <= 0 or beta <= 0:
        raise ValueError("thermal weights need omega > 0 and beta > 0")
    w = np.exp(-beta * omega * np.arange(cutoff + 1))
    return w / w.sum()
