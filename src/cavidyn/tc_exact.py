"""Closed-form single-excitation propagator for the lossy emitter-cavity model.

With one excitation shared between the cavity mode and N emitters, the
Hamiltonian matrix is an arrowhead: photon energy in the corner, emitter
energies on the remaining diagonal, and the per-emitter coupling g = omega_r /
sqrt(N) along the first row/column.  Photon loss kappa and emitter loss gamma
sit on the diagonal as -i*kappa / -i*gamma.  Starting from the photonic
configuration, the survival amplitude and the transfer amplitude onto emitter
n are sums over the complex poles E_m (eigenvalues of the arrowhead) with
residues available in closed form:

    photon:    w_m      = prod_n (E_m - w_n) / prod_{m' != m} (E_m - E_m')
    emitter n: w_m^(n)  = g_n * prod_{k != n} (E_m - w_k) / prod_{m' != m} (E_m - E_m')

(w_n denotes the loss-shifted emitter energy omega_n - i*gamma).  The products
are evaluated in complex log space so that N ~ 100 does not overflow, and the
photon residues must resum to 1 (amplitude at t = 0).  When poles collide --
e.g. the N-1 dark states of a disorder-free model -- the product form is
replaced by an eigenvector decomposition of the arrowhead, which handles
degeneracies without special-casing.

The same pole data gives the linear absorption lineshape

    F(omega) = sum_m Re[ i * w_m / (pi * (omega - E_m)) ],

a sum of Lorentzians of weight Re(w_m) whose total frequency integral is 1.
Loss provides the linewidth; with kappa = gamma = 0 the lineshape degenerates
to a stick spectrum and F vanishes off the poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR_EV_FS
from .models import TCModel, disordered_tc

#: poles closer than this (eV) switch the residue evaluation to the
#: eigenvector decomposition
DEGENERACY_GAP = 1e-10

#: tolerance on |sum of photon residues - 1|
RESIDUE_SUM_TOL = 1e-10

#: default absorption grid: 0.6 .. 1.4 eV in 0.002 eV steps
DEFAULT_OMEGA_GRID = np.linspace(0.6, 1.4, 401)


def bright_energies(
    omega_c: float, omega_0: float, omega_r: float, kappa: float = 0.0, gamma: float = 0.0
) -> tuple[complex, complex]:
    """Upper/lower polariton poles of the uniform model.

    E_pm = (wc + w0)/2 +/- sqrt((wc - w0)^2 + 4 omega_r^2)/2 with the
    loss-shifted wc = omega_c - i*kappa, w0 = omega_0 - i*gamma.  The N-1
    dark states stay at w0 and never acquire photon weight.
    """
    wc = omega_c - 1j * kappa
    w0 = omega_0 - 1j * gamma
    s = 0.5 * (wc + w0)
    d = 0.5 * np.sqrt((wc - w0) ** 2 + 4.0 * omega_r**2)
    return s + d, s - d


def _uniform_params(model: TCModel) -> tuple[float, complex, complex, complex]:
    freqs = model.qubit_freqs
    if np.ptp(freqs) != 0:
        raise ValueError("closed-form two-pole amplitudes need uniform emitter energies")
    e_plus, e_minus = bright_energies(
        model.omega_c, freqs[0], model.omega_r, model.kappa, model.gamma
    )
    w0 = freqs[0] - 1j * model.gamma
    return freqs[0], w0, e_plus, e_minus


def uniform_photon_amplitude(model: TCModel, times: np.ndarray) -> np.ndarray:
    """<photon| exp(-iHt/hbar) |photon> for the disorder-free model."""
    _, w0, ep, em = _uniform_params(model)
    t = np.asarray(times, dtype=float)
    if abs(ep - em) < DEGENERACY_GAP:
        e = 0.5 * (ep + em)
        return np.exp(-1j * e * t / HBAR_EV_FS) * (1.0 - 1j * (e - w0) * t / HBAR_EV_FS)
    return (
        (ep - w0) * np.exp(-1j * ep * t / HBAR_EV_FS)
        - (em - w0) * np.exp(-1j * em * t / HBAR_EV_FS)
    ) / (ep - em)


def uniform_qubit_amplitude(model: TCModel, times: np.ndarray) -> np.ndarray:
    """<emitter n| exp(-iHt/hbar) |photon>, identical for every n."""
    _, _, ep, em = _uniform_params(model)
    t = np.asarray(times, dtype=float)
    g = model.coupling
    if abs(ep - em) < DEGENERACY_GAP:
        e = 0.5 * (ep + em)
        return g * (-1j * t / HBAR_EV_FS) * np.exp(-1j * e * t / HBAR_EV_FS)
    return g * (np.exp(-1j * ep * t / HBAR_EV_FS) - np.exp(-1j * em * t / HBAR_EV_FS)) / (ep - em)


@dataclass(frozen=True)
class PoleDecomposition:
    """Propagator of one realization as poles + residues.

    energies: complex poles E_m, shape (M,).
    photon_weights: residues of the photon survival amplitude, shape (M,).
    qubit_weights: residues of the photon -> emitter n amplitude, (N, M).
    """

    energies: np.ndarray
    photon_weights: np.ndarray
    qubit_weights: np.ndarray

    def photon_amplitude(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(t, self.energies) / HBAR_EV_FS)
        return phases @ self.photon_weights

    def photon_population(self, times: np.ndarray) -> np.ndarray:
        return np.abs(self.photon_amplitude(times)) ** 2

    def qubit_amplitudes(self, times: np.ndarray) -> np.ndarray:
        """Shape (len(times), N)."""
        t = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(t, self.energies) / HBAR_EV_FS)
        return phases @ self.qubit_weights.T

    def total_population(self, times: np.ndarray) -> np.ndarray:
        pops = np.abs(self.qubit_amplitudes(times)) ** 2
        return self.photon_population(times) + pops.sum(axis=1)

    def absorption(self, omega: np.ndarray) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        denom = w[:, None] - self.energies[None, :]
        return np.real(1j * self.photon_weights[None, :] / (np.pi * denom)).sum(axis=1)


def _product_residues(poles: np.ndarray, emitter_e: np.ndarray, couplings: np.ndarray):
    """Log-space evaluation of the closed-form residue products."""
    m = len(poles)
    diff_pe = poles[:, None] - emitter_e[None, :]  # (M, N)
    diff_pp = poles[:, None] - poles[None, :]  # (M, M)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pe = np.log(diff_pe.astype(complex))
        log_pp = np.log(diff_pp.astype(complex))
    np.fill_diagonal(log_pp, 0.0)
    log_den = log_pp.sum(axis=1)  # (M,)
    log_num = log_pe.sum(axis=1)  # (M,)
    with np.errstate(invalid="ignore", over="ignore"):
        photon_w = np.where(np.isneginf(log_num.real), 0.0, np.exp(log_num - log_den))
        # emitter n: drop the (E_m - w_n) factor from the numerator
        log_qn = log_num[:, None] - log_pe  # (M, N)
        qubit_w = couplings[None, :] * np.where(
            np.isinf(log_qn.real), 0.0, np.exp(log_qn - log_den[:, None])
        )
    return photon_w, qubit_w.T  # (M,), (N, M)


def _eigvec_residues(h: np.ndarray):
    vals, vecs = np.linalg.eig(h)
    vinv = np.linalg.inv(vecs)
    photon_w = vecs[0, :] * vinv[:, 0]
    qubit_w = vecs[1:, :] * vinv[:, 0][None, :]
    return vals, photon_w, qubit_w


def solve_realization(model: TCModel) -> PoleDecomposition:
    """Poles and residues for one (possibly disordered, lossy) realization."""
    h = model.matrix()
    emitter_e = model.qubit_freqs - 1j * model.gamma
    couplings = np.full(model.n_qubits, model.coupling)

    poles = np.linalg.eigvals(h)
    gaps = np.abs(poles[:, None] - poles[None, :])
    np.fill_diagonal(gaps, np.inf)
    use_products = gaps.min() >= DEGENERACY_GAP

    if use_products:
        photon_w, qubit_w = _product_residues(poles, emitter_e, couplings)
        if abs(photon_w.sum() - 1.0) <= RESIDUE_SUM_TOL:
            return PoleDecomposition(poles, photon_w, qubit_w)
        # ill-conditioned products (clustered poles just above the gap
        # threshold): fall through to the eigenvector route

    vals, photon_w, qubit_w = _eigvec_residues(h)
    if abs(photon_w.sum() - 1.0) > RESIDUE_SUM_TOL:
        raise ArithmeticError(
            f"photon residues sum to {photon_w.sum()}, not 1: "
            "pole decomposition failed for this realization"
        )
    return PoleDecomposition(vals, photon_w, qubit_w)


def disorder_realizations(
    model: TCModel, width: float, n_realizations: int, seed: int
) -> list[TCModel]:
    return [disordered_tc(model, width, seed, r) for r in range(n_realizations)]


def ensemble_photon_population(
    model: TCModel, width: float, times: np.ndarray, n_realizations: int, seed: int
) -> np.ndarray:
    """Photon survival population per realization, shape (R, T)."""
    out = np.empty((n_realizations, len(times)))
    for r, m in enumerate(disorder_realizations(model, width, n_realizations, seed)):
        out[r] = solve_realization(m).photon_population(times)
    return out


def ensemble_absorption(
    model: TCModel, width: float, omega: np.ndarray, n_realizations: int, seed: int
) -> np.ndarray:
    """Mean absorption lineshape over the disorder ensemble."""
    acc = np.zeros(len(omega))
    for m in disorder_realizations(model, width, n_realizations, seed):
        acc += solve_realization(m).absorption(omega)
    return acc / n_realizations


def spectrum_peaks(omega: np.ndarray, f: np.ndarray) -> list[tuple[float, float]]:
    """Interior local maxima of a sampled lineshape, descending by height."""
    idx = np.where((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))[0] + 1
    peaks = [(float(omega[i]), float(f[i])) for i in idx]
    peaks.sort(key=lambda p: -p[1])
    return peaks
