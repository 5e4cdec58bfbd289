"""Closed-form single-excitation propagator for the lossy emitter-cavity model.

With one excitation shared between the cavity mode and N emitters, the
Hamiltonian matrix is an arrowhead: photon energy in the corner, emitter
energies on the remaining diagonal, and the per-emitter coupling g = omega_r /
sqrt(N) along the first row/column.  Photon loss kappa and emitter loss gamma
sit on the diagonal as -i*kappa / -i*gamma.  Starting from the photonic
configuration, the survival amplitude and the transfer amplitude onto emitter
n are sums over the complex poles E_m (eigenvalues of the arrowhead).

The poles are found in O(N^2) from the secular function.  The uniform
emitter loss is shifted out (z = E + i*gamma), which leaves real emitter
poles w_n = omega_n and

    f(z) = z - (omega_c - i(kappa - gamma)) - g^2 sum_n 1 / (z - w_n),

whose roots are those of the characteristic polynomial p = f * prod(z - w_n).
The start is `eigvalsh` of the lossless arrowhead, the real part of
`TCModel.matrix()`, each eigenvalue moved by -i(kappa - gamma) times its
photon weight (first-order loss).  Aberth-Ehrlich sweeps then move all poles
at once,

    z_m <- z_m - r_m / (1 - r_m sum_{k != m} 1 / (z_m - z_k)),
    r_m  = p/p' = f / (f' + f sum_n 1 / (z_m - w_n))   (finite where f = 0),

until no pole moves by more than STEP_TOL * max|z|, or MAX_SWEEPS is spent.
The residues are closed forms at the converged poles:

    photon:    1 / f'(z_m),    f'(z) = 1 + g^2 sum_n 1 / (z - w_n)^2
    emitter n: g / ((z_m - w_n) f'(z_m))

Photon residues must resum to 1 (amplitude at t = 0) and the poles to the
trace.  A realization goes to an eigenvector decomposition of the full
arrowhead instead when g = 0, when two emitter energies sit closer than
DEGENERACY_GAP (this includes the N-1 exactly degenerate dark states of a
disorder-free model), when the sweeps do not converge, or when either sum
check fails; the eigenvector route handles degeneracies without
special-casing and raises `ArithmeticError` if its own residues do not sum
to 1.

The same pole data gives the linear absorption lineshape

    F(omega) = sum_m Re[ i * w_m / (pi * (omega - E_m)) ],

a sum of Lorentzians of weight Re(w_m) whose total frequency integral is 1.
Loss provides the linewidth; with kappa = gamma = 0 the lineshape degenerates
to a stick spectrum and F vanishes off the poles.

`PoleDecomposition.amplitudes` is the one synthesis of the time-dependent
state, on evenly spaced samples t_j = j*dt: with B = ceil(sqrt(n)) the phase
matrix exp(-i E_m t_j / hbar) is a coarse table at t = jB*dt times a fine one
at t = k*dt (2 sqrt(n) complex exponentials per pole instead of n), and its
product with the stacked residues gives every amplitude, photon in column 0
as in `cavidyn.models`.  Disorder ensembles are driven by `cavidyn.runner`,
one realization at a time.

Both syntheses work in blocks written straight into a preallocated result.
`amplitudes` forms each coarse row's (B, M) phase block and multiplies it by
the residues into its B output rows, so its scratch is one block and the
stacked residues, never the whole (n, M) table; `absorption` takes
OMEGA_BLOCK frequencies at a time in one reused (OMEGA_BLOCK, M) array, so
its scratch does not grow with the grid.  The reason is page faults, not
arithmetic: for N = 100 and 601 samples, the whole phase table (1 MB) next
to the 1 MB result freed about 2 MB at the top of the heap per realization,
which glibc returned to the operating system and the next realization
faulted back in page by page (about 410 minor faults, a fifth of the
synthesis time).  The secular start squares and inverts instead of calling
the float power, which took about a third of the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_EV_FS
from .models import TCModel

#: emitter energies closer than this (eV) switch the residue evaluation to
#: the eigenvector decomposition; the uniform model's two-pole closed forms
#: use it as their pole-collision threshold
DEGENERACY_GAP = 1e-10

#: tolerance on |sum of photon residues - 1|, and on the relative trace
#: mismatch of the secular poles
RESIDUE_SUM_TOL = 1e-10

#: Aberth sweeps after which the secular route gives up
MAX_SWEEPS = 50

#: the sweeps stop once no pole moves by more than this times max |pole|
STEP_TOL = 1e-15

#: frequencies per block of `PoleDecomposition.absorption`
OMEGA_BLOCK = 32

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

    def amplitudes(self, dt: float, n: int) -> np.ndarray:
        """<k| exp(-iHt/hbar) |photon> at t_j = j*dt, j = 0..n-1: shape
        (n, N+1), photon in column 0 and emitter k in column k."""
        b = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n))
        rate = -1j * self.energies / HBAR_EV_FS
        coarse = np.exp(np.multiply.outer(np.arange(0, n, b) * dt, rate))
        fine = np.exp(np.multiply.outer(np.arange(b) * dt, rate))
        weights = np.vstack([self.photon_weights, self.qubit_weights]).T
        out = np.empty((n, weights.shape[1]), dtype=complex)
        for start, row in zip(range(0, n, b), coarse):
            block = out[start:start + b]
            np.matmul(fine[:len(block)] * row, weights, out=block)
        return out

    def absorption(self, omega: np.ndarray) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        weights = 1j * self.photon_weights
        out = np.empty(len(w))
        for start in range(0, len(w), OMEGA_BLOCK):
            # one (block, M) temporary, reused for every step
            terms = w[start:start + OMEGA_BLOCK, None] - self.energies
            terms *= np.pi
            # a real pole on the grid is (given any loss) dark: residue 0
            np.divide(weights, terms, out=terms, where=terms != 0)
            out[start:start + OMEGA_BLOCK] = terms.real.sum(axis=1)
        return out


def _secular_residues(model: TCModel):
    """(poles, photon residues, emitter residues) from the secular equation,
    or None when the realization belongs to the eigenvector route."""
    g = model.coupling
    w = model.qubit_freqs
    if g == 0 or (len(w) > 1 and np.diff(np.sort(w)).min() < DEGENERACY_GAP):
        return None
    g2 = g * g
    # with the uniform emitter loss shifted out, the emitter poles w are real
    c = model.omega_c - 1j * (model.kappa - model.gamma)
    # the lossless arrowhead is the real part of the lossy one
    lam = np.linalg.eigvalsh(model.matrix().real)
    with np.errstate(all="ignore"):
        d = lam[:, None] - w
        photon = 1.0 / (1.0 + g2 * (1.0 / (d * d)).sum(axis=1))
        z = lam - 1j * (model.kappa - model.gamma) * photon
        for _ in range(MAX_SWEEPS):
            inv_d = 1.0 / (z[:, None] - w)
            s1 = inv_d.sum(axis=1)
            f = z - c - g2 * s1
            # Newton ratio p/p' of p = f * prod(z - w), finite where f = 0
            newton = f / (1.0 + g2 * (inv_d * inv_d).sum(axis=1) + f * s1)
            gaps = z[:, None] - z
            np.fill_diagonal(gaps, np.inf)
            step = newton / (1.0 - newton * (1.0 / gaps).sum(axis=1))
            z = z - step
            if np.max(np.abs(step)) <= STEP_TOL * np.max(np.abs(z)):
                break
        else:
            return None
        inv_d = 1.0 / (z[:, None] - w)
        photon_w = 1.0 / (1.0 + g2 * (inv_d * inv_d).sum(axis=1))
        qubit_w = g * inv_d.T * photon_w
    if not (abs(photon_w.sum() - 1.0) <= RESIDUE_SUM_TOL
            and abs(z.sum() - c - w.sum()) <= RESIDUE_SUM_TOL * np.abs(z).sum()
            and np.all(np.isfinite(qubit_w))):
        return None
    return z - 1j * model.gamma, photon_w, qubit_w


def _eigvec_residues(h: np.ndarray):
    vals, vecs = np.linalg.eig(h)
    vinv = np.linalg.inv(vecs)
    photon_w = vecs[0, :] * vinv[:, 0]
    qubit_w = vecs[1:, :] * vinv[:, 0][None, :]
    return vals, photon_w, qubit_w


def solve_realization(model: TCModel) -> PoleDecomposition:
    """Poles and residues for one (possibly disordered, lossy) realization."""
    secular = _secular_residues(model)
    if secular is not None:
        return PoleDecomposition(*secular)
    vals, photon_w, qubit_w = _eigvec_residues(model.matrix())
    if abs(photon_w.sum() - 1.0) > RESIDUE_SUM_TOL:
        raise ArithmeticError(
            f"photon residues sum to {photon_w.sum()}, not 1: "
            "pole decomposition failed for this realization"
        )
    return PoleDecomposition(vals, photon_w, qubit_w)


def spectrum_peaks(omega: np.ndarray, f: np.ndarray) -> list[tuple[float, float]]:
    """Interior local maxima of a sampled lineshape, descending by height."""
    idx = np.where((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))[0] + 1
    peaks = [(float(omega[i]), float(f[i])) for i in idx]
    peaks.sort(key=lambda p: -p[1])
    return peaks
