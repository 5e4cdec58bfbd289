"""Exact Fock-basis reference propagation for system+bath Hamiltonians.

Brute-force companion to the variational propagator: every mode is truncated
at an explicit occupation cutoff and the Hamiltonian is assembled as a sparse
operator over |system label> x |v_1 ... v_Nb>.  Small spaces evolve through a
dense eigendecomposition (`DensePropagator`); larger ones can hand the sparse
operator to a Krylov exponential.  Exponential scaling restricts this to a
handful of modes, which is exactly its role -- an independent check, not a
production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np
import scipy.sparse as sp

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

    def coherent_bath_vector(self, f: np.ndarray) -> np.ndarray:
        """Normalized coherent state prod_q |f_q> over the bath modes."""
        out = np.ones(1, dtype=complex)
        for q, c in enumerate(self.cutoffs):
            v = np.arange(c + 1)
            if f[q] == 0:
                amp = np.zeros(c + 1, dtype=complex)
                amp[0] = 1.0
            else:
                lf = np.log(complex(f[q]))
                amp = np.exp(v * lf - 0.5 * np.array([lgamma(k + 1) for k in v]))
                amp *= np.exp(-0.5 * abs(f[q]) ** 2)
            out = np.kron(out, amp)
        return out

    def multiconfig_vector(self, amplitudes: np.ndarray, displacements: np.ndarray) -> np.ndarray:
        """Dense vector of sum_{m,n} A_mn |n> x |f_m> (normalized coherent states).

        amplitudes: (M, n_sys); displacements: (M, n_modes).
        """
        out = np.zeros(self.dim, dtype=complex)
        for m in range(amplitudes.shape[0]):
            bath = self.coherent_bath_vector(displacements[m])
            for n in range(self.n_sys):
                if amplitudes[m, n] == 0:
                    continue
                sys_vec = np.zeros(self.n_sys, dtype=complex)
                sys_vec[n] = amplitudes[m, n]
                out += np.kron(sys_vec, bath)
        return out

    def system_populations(self, psi: np.ndarray) -> np.ndarray:
        """Population of each system label; psi may carry leading axes."""
        probs = np.abs(psi.reshape(psi.shape[:-1] + (self.n_sys, -1))) ** 2
        return probs.sum(axis=-1)

    def mode_occupation(self, psi: np.ndarray, q: int):
        """<b_q^+ b_q>; psi may carry leading axes."""
        dims = self.mode_dims
        before = self.n_sys * int(np.prod(dims[:q], dtype=np.int64))
        probs = np.abs(psi.reshape(psi.shape[:-1] + (before, dims[q], -1))) ** 2
        return probs.sum(axis=(-3, -1)) @ np.arange(dims[q])


class DensePropagator:
    """exp(-iHt/hbar) through a one-time eigendecomposition."""

    def __init__(self, h_matrix: np.ndarray, hermitian: bool = True):
        if hermitian:
            self.vals, self.vecs = np.linalg.eigh(h_matrix)
            self.vinv = self.vecs.conj().T
        else:
            self.vals, self.vecs = np.linalg.eig(h_matrix)
            self.vinv = np.linalg.inv(self.vecs)

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        return self.vecs @ (np.exp(-1j * self.vals * t / HBAR_EV_FS) * (self.vinv @ psi))

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
