"""Model definitions for cavity-coupled emitter systems.

Basis convention for the single-excitation manifold: index 0 is the photonic
configuration (one cavity photon, all emitters in the ground state), index
n = 1..N is the configuration with emitter n excited and no photon.  Emitter
site phases use the site label n (1-based) so that a phonon wavenumber k
couples to site n with phase exp(+/- i k n).

Vibration-coupled models are reduced to a generic "system + linear bath"
container (`SystemBathHamiltonian`): a system matrix, a set of harmonic modes,
and coupling coefficients of b_q^dagger between system labels; the b_q
coefficients and the Hermiticity flag are derived from these by the container
itself.  The variational propagator and the dense reference propagator both
consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np


class UnsupportedModelError(ValueError):
    """Raised for model variants without a representation in this package."""


def _as_qubit_freqs(omega_qubit, n_qubits: int) -> np.ndarray:
    freqs = np.asarray(omega_qubit, dtype=float)
    if freqs.ndim == 0:
        freqs = np.full(n_qubits, float(freqs))
    if freqs.shape != (n_qubits,):
        raise ValueError(
            f"need one transition energy per emitter: got shape {freqs.shape}, "
            f"expected ({n_qubits},)"
        )
    return freqs


@dataclass(frozen=True)
class TCModel:
    """Cavity mode + N two-level emitters, rotating-wave coupling.

    Collective coupling strength `omega_r` (eV); the per-emitter coupling is
    omega_r / sqrt(N).  `kappa` / `gamma` are photon / emitter inverse
    lifetimes entering as -i*kappa (-i*gamma) on the respective diagonal.
    """

    n_qubits: int
    omega_c: float
    omega_qubit: float | Sequence[float]
    omega_r: float
    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.omega_r < 0:
            raise ValueError("omega_r must be >= 0")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("loss rates must be >= 0")
        _as_qubit_freqs(self.omega_qubit, self.n_qubits)  # shape check

    @property
    def qubit_freqs(self) -> np.ndarray:
        return _as_qubit_freqs(self.omega_qubit, self.n_qubits)

    @property
    def coupling(self) -> float:
        """Per-emitter coupling g = omega_r / sqrt(N)."""
        return self.omega_r / np.sqrt(self.n_qubits)

    @property
    def dim(self) -> int:
        return self.n_qubits + 1

    def matrix(self) -> np.ndarray:
        """Dense single-excitation Hamiltonian, (N+1) x (N+1).

        Hermitian bit-for-bit when kappa = gamma = 0; complex symmetric with
        -i*kappa / -i*gamma diagonals otherwise.
        """
        h = np.diag(np.concatenate([[self.omega_c - 1j * self.kappa],
                                    self.qubit_freqs - 1j * self.gamma]))
        h[0, 1:] = h[1:, 0] = self.coupling
        return h

    def with_qubit_freqs(self, freqs: np.ndarray) -> "TCModel":
        return replace(self, omega_qubit=tuple(float(x) for x in freqs))


def phonon_wavenumbers(n_modes: int) -> np.ndarray:
    """k_l = 2*pi*l/N for l = -N/2+1 .. N/2 (N modes, one per site)."""
    if n_modes < 2:
        raise ValueError("phonon register needs n_modes >= 2")
    ls = np.arange(-(n_modes // 2) + 1, n_modes - (n_modes // 2) + 1)
    return 2.0 * np.pi * ls / n_modes


def phonon_dispersion(k: np.ndarray, omega_base: float, bandwidth: float) -> np.ndarray:
    """Linear-in-|k| acoustic-like band: omega_base * (1 + bandwidth*(2|k|/pi - 1)).

    `bandwidth` is the dimensionless half-width; band edges are
    omega_base*(1 -/+ bandwidth) at |k| -> 0 / |k| = pi.
    """
    if omega_base <= 0:
        raise ValueError("omega_base must be > 0")
    if not 0 <= bandwidth < 1:
        raise ValueError("bandwidth must lie in [0, 1) to keep all modes positive")
    w = omega_base * (1.0 + bandwidth * (2.0 * np.abs(k) / np.pi - 1.0))
    return w


@dataclass(frozen=True)
class HTCModel:
    """TC model plus one phonon register per emitter chain.

    Each emitter excitation couples linearly to every lattice mode with
    strength -(lam/sqrt(N)) * omega_k and site phase exp(-i k n) on b_k^dagger.
    One mode per emitter (n_modes = N).
    """

    tc: TCModel
    lam: float
    phonon_base: float
    phonon_bandwidth: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        phonon_dispersion(np.zeros(1), self.phonon_base, self.phonon_bandwidth)

    @property
    def n_modes(self) -> int:
        return self.tc.n_qubits

    @property
    def wavenumbers(self) -> np.ndarray:
        return phonon_wavenumbers(self.n_modes)

    @property
    def mode_freqs(self) -> np.ndarray:
        return phonon_dispersion(self.wavenumbers, self.phonon_base, self.phonon_bandwidth)

    def site_coupling(self) -> np.ndarray:
        """Coefficient of b_q^dagger for emitter site n: shape (N, N_modes).

        Row n-1 (site n), column q: -(lam/sqrt(N)) * omega_q * exp(-i k_q n).
        The b_q coefficient is the complex conjugate.
        """
        n = self.tc.n_qubits
        sites = np.arange(1, n + 1)[:, None]
        return (
            -(self.lam / np.sqrt(n))
            * self.mode_freqs[None, :]
            * np.exp(-1j * self.wavenumbers[None, :] * sites)
        )


@dataclass(frozen=True)
class SystemBathHamiltonian:
    """H = sum_{nn'} |n><n'| (e_sys[n,n'] + sum_q (coup_create[n,n',q] b_q^+ +
    coup_annihilate[n,n',q] b_q)) + sum_q mode_freqs[q] b_q^+ b_q.

    `mode_freqs` may contain negative entries (thermal-double partner modes).
    `coup_annihilate` is derived: the conjugate of `coup_create` transposed
    over the two system axes, so the coupling is Hermitian by construction.
    `e_sys` may be non-Hermitian (lifetime terms); `hermitian` records whether
    it, and with it the full operator, is exactly Hermitian.
    """

    e_sys: np.ndarray
    mode_freqs: np.ndarray
    coup_create: np.ndarray
    coup_annihilate: np.ndarray = field(init=False)
    hermitian: bool = field(init=False)

    def __post_init__(self):
        ns = self.e_sys.shape[0]
        nb = self.mode_freqs.shape[0]
        if self.e_sys.shape != (ns, ns):
            raise ValueError("e_sys must be square")
        if self.coup_create.shape != (ns, ns, nb):
            raise ValueError(
                f"coupling tensor must have shape ({ns},{ns},{nb}); got "
                f"{self.coup_create.shape}"
            )
        object.__setattr__(self, "coup_annihilate",
                           self.coup_create.conj().transpose(1, 0, 2))
        object.__setattr__(self, "hermitian",
                           bool(np.array_equal(self.e_sys, self.e_sys.conj().T)))

    @property
    def n_sys(self) -> int:
        return self.e_sys.shape[0]

    @property
    def n_modes(self) -> int:
        return self.mode_freqs.shape[0]


def no_coupling(n_sys: int, n_modes: int) -> np.ndarray:
    return np.zeros((n_sys, n_sys, n_modes), dtype=complex)


def tc_system_bath(model: TCModel) -> SystemBathHamiltonian:
    """TC model as a bathless system (for the variational propagator)."""
    return SystemBathHamiltonian(model.matrix(), np.zeros(0),
                                 no_coupling(model.dim, 0))


def htc_system_bath(model: HTCModel) -> SystemBathHamiltonian:
    ns = model.tc.dim
    create = no_coupling(ns, model.n_modes)
    site = model.site_coupling()
    for j in range(1, ns):
        create[j, j, :] = site[j - 1]
    return SystemBathHamiltonian(model.tc.matrix(),
                                 model.mode_freqs.astype(float), create)


def disorder_qubit_freqs(
    omega_0: float, width: float, n_qubits: int, seed: int, realization: int
) -> np.ndarray:
    """Emitter energies for one disorder realization.

    Uniform on [omega_0 - width/2, omega_0 + width/2], drawn from a
    counter-based generator keyed by (seed, realization): the draw for a given
    (seed, realization, site) never depends on which other realizations were
    generated, or in what order.
    """
    if width < 0:
        raise ValueError("disorder width must be >= 0")
    if realization < 0:
        raise ValueError("realization index must be >= 0")
    if width == 0:
        return np.full(n_qubits, float(omega_0))
    bits = np.random.Philox(key=np.array([seed, realization], dtype=np.uint64))
    u = np.random.Generator(bits).random(n_qubits)
    return omega_0 + width * (u - 0.5)


def disordered_tc(model: TCModel, width: float, seed: int, realization: int) -> TCModel:
    if width == 0:  # the mean of equal energies can be an ulp off them
        return model
    freqs = disorder_qubit_freqs(
        float(np.mean(model.qubit_freqs)), width, model.n_qubits, seed, realization
    )
    return model.with_qubit_freqs(freqs)
