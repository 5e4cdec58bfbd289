"""Third-order response functions and 2D electronic spectra.

The four ground/singly-excited response functions R1..R4 (stimulated emission
and ground-state bleach) and the two excited-state-absorption counterparts
R1*, R2* are assembled from variational trajectories in closed form: products
of electronic amplitudes, transition-dipole factors, and coherent-state
overlap (Debye-Waller) factors carrying the free-phonon phases of the
intervals spent in the electronic ground state.

The workflow is bank -> response -> spectra:

  1. `first_leg_bank` propagates one trajectory per bright singly-excited
     label (plus a backward branch for R4) and stores amplitude/displacement
     snapshots on a uniform grid covering every composed time any R needs.
  2. `response_se_gsb` evaluates R1..R4 on the (tau, T_w, t) grid from bank
     snapshots alone; `response_esa` additionally runs second-leg
     propagations in the doubly-excited manifold, started from
     dipole-raised transplants of first-leg snapshots.
  3. `spectra` applies the electronic dephasing window exp(-gamma'(tau+t)/hbar)
     and the double one-sided transform, returning per-T_w SE/GSB/ESA/TOTAL
     maps (TOTAL = SE + GSB + ESA by construction).

Everything is impulsive-limit: pulse envelopes are delta functions and the
polarization factors reduce to scalar products of unit polarization vectors
with a common dipole axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import HBAR_EV_FS
from .models import SystemBathHamiltonian
from .varprop import (
    MultiD2State,
    PropagationSettings,
    autocorrelation,
    absorption_from_autocorrelation,
    init_state,
    load_trajectory,
    overlap_matrix,
    propagate,
    save_trajectory,
)

_Z = np.array([0.0, 0.0, 1.0])

# ESA checkpoint cadence: persist after this many completed second-leg rows.
CHECKPOINT_STRIDE = 16


@dataclass(frozen=True)
class DipoleSet:
    """Transition dipoles and pulse polarizations.

    mu[n] is the ground -> singly-excited dipole magnitude of label n (dark
    labels carry 0); mu_up[m, n] the singly -> doubly-excited magnitudes.
    All dipoles point along a common axis; the four pulse polarizations are
    unit vectors whose dot products with that axis scale the response.
    """

    mu: np.ndarray
    mu_up: Optional[np.ndarray] = None
    polarizations: tuple = (_Z, _Z, _Z, _Z)
    axis: np.ndarray = field(default_factory=lambda: _Z.copy())

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=complex))
        if self.mu_up is not None:
            object.__setattr__(self, "mu_up", np.asarray(self.mu_up, dtype=complex))
        if len(self.polarizations) != 4:
            raise ValueError("need exactly four pulse polarizations")
        for e in self.polarizations:
            if abs(np.linalg.norm(e) - 1.0) > 1e-12:
                raise ValueError("polarizations must be unit vectors")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("dipole axis must be a unit vector")

    @property
    def pulse_factors(self) -> np.ndarray:
        """(e_a . axis) for the four pulses."""
        return np.array([float(np.dot(e, self.axis)) for e in self.polarizations])

    def scaled(self, c: float) -> "DipoleSet":
        up = None if self.mu_up is None else c * self.mu_up
        return DipoleSet(c * self.mu, up, self.polarizations, self.axis)


@dataclass(frozen=True)
class ResponseGrid:
    """Uniform coherence/detection time grids (fs), waiting times, dephasing.

    tau and t must start at 0 with identical spacing; waiting times must be
    multiples of that spacing (the snapshot bank carries no interpolation).
    """

    tau_fs: np.ndarray
    t_fs: np.ndarray
    tw_fs: tuple
    gamma_prime: float = 0.01

    def __post_init__(self):
        tau = np.asarray(self.tau_fs, dtype=float)
        t = np.asarray(self.t_fs, dtype=float)
        object.__setattr__(self, "tau_fs", tau)
        object.__setattr__(self, "t_fs", t)
        object.__setattr__(self, "tw_fs", tuple(float(w) for w in self.tw_fs))
        for name, g in (("tau", tau), ("t", t)):
            if g.ndim != 1 or len(g) < 2:
                raise ValueError(f"{name} grid needs at least two points")
            steps = np.diff(g)
            if abs(g[0]) > 1e-12 or np.any(np.abs(steps - steps[0]) > 1e-9):
                raise ValueError(f"{name} grid must be uniform and start at 0")
        if abs(self.dt_tau - self.dt_t) > 1e-9:
            raise ValueError("tau and t grids must share one step")
        for w in self.tw_fs:
            if w < 0 or abs(round(w / self.dt_t) * self.dt_t - w) > 1e-9:
                raise ValueError(
                    f"waiting time {w} fs is not on the {self.dt_t} fs sample grid"
                )
        if self.gamma_prime <= 0:
            raise ValueError("gamma_prime must be > 0")

    @property
    def dt_tau(self) -> float:
        return float(self.tau_fs[1] - self.tau_fs[0])

    @property
    def dt_t(self) -> float:
        return float(self.t_fs[1] - self.t_fs[0])

    @property
    def span_fs(self) -> float:
        """Longest composed first-leg time any response needs."""
        return float(self.tau_fs[-1] + max(self.tw_fs) + self.t_fs[-1])


def grid_2d(n: int = 64, dt: float = 0.5, tw=(0.0, 16.0, 32.0, 48.0),
            gamma_prime: float = 0.01) -> ResponseGrid:
    """Square n-point tau/t grid with step dt (fs)."""
    axis = np.arange(n) * dt
    return ResponseGrid(axis, axis.copy(), tw, gamma_prime)


@dataclass
class TrajectoryBank:
    """First-leg snapshots per bright initial label.

    amps[n] has shape (S, M, n_labels) on the uniform forward grid
    s = 0, dt, ..., (S-1) dt; amps_back[n] likewise for s = 0, -dt, ...
    Displacements carry shape (S, M, n_modes).
    """

    dt: float
    mode_freqs: np.ndarray
    bright: tuple
    amps: dict
    disps: dict
    amps_back: dict
    disps_back: dict

    def _index(self, s, n_max: int) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        i = np.rint(s / self.dt).astype(int)
        off = np.abs(i * self.dt - s) > 1e-9 * np.maximum(1.0, np.abs(s))
        if off.any():
            raise ValueError(f"time {s[off][0]} fs is not on the {self.dt} fs bank grid")
        outside = (i < 0) | (i >= n_max)
        if outside.any():
            raise ValueError(f"time {s[outside][0]} fs outside the stored bank range")
        return i

    def forward(self, n: int, s):
        """Snapshots at times s >= 0 of any shape: (*s.shape, M, ...) arrays."""
        i = self._index(s, len(self.amps[n]))
        return self.amps[n][i], self.disps[n][i]

    def backward(self, n: int, s):
        """Snapshots at non-positive times s (0, -dt, ...) of any shape."""
        i = self._index(-np.asarray(s, dtype=float), len(self.amps_back[n]))
        return self.amps_back[n][i], self.disps_back[n][i]


def first_leg_bank(
    h1: SystemBathHamiltonian,
    dipoles: DipoleSet,
    grid: ResponseGrid,
    multiplicity: int = 1,
    noise_seed: int = 0,
    noise_scale: float = 0.0,
    settings: Optional[PropagationSettings] = None,
    checkpoint_dir: Optional[str] = None,
) -> TrajectoryBank:
    """Propagate one singly-excited trajectory per bright label.

    Forward samples cover tau_max + max(T_w) + t_max; the backward branch
    (needed by R4's amplitudes at -t) covers -t_max.  With checkpoint_dir,
    each leg is saved there in the propagator's versioned text format and
    reloaded instead of recomputed when the file already exists and matches
    the requested sample times.
    """
    if multiplicity > 1 and noise_scale == 0.0:
        noise_scale = 1e-4
    settings = settings or PropagationSettings()
    bright = tuple(int(i) for i in np.flatnonzero(np.abs(dipoles.mu) > 0))
    if not bright:
        raise ValueError("no bright singly-excited label (all dipoles zero)")
    dt = grid.dt_t
    fwd_times = np.arange(0.0, grid.span_fs + dt / 2, dt)
    back_times = -np.arange(0.0, grid.t_fs[-1] + dt / 2, dt)

    def leg(st, times, tag):
        if checkpoint_dir is not None:
            path = os.path.join(checkpoint_dir, f"leg{tag}.txt")
            if os.path.exists(path):
                traj = load_trajectory(path)
                if (len(traj.times) == len(times)
                        and np.allclose(traj.times, times, atol=1e-9)):
                    return traj
            traj = propagate(h1, st, times[-1], settings, t_eval=times)
            save_trajectory(path, traj)
            return traj
        return propagate(h1, st, times[-1], settings, t_eval=times)

    amps, disps, amps_b, disps_b = {}, {}, {}, {}
    for n in bright:
        st = init_state(h1.n_sys, h1.n_modes, n, multiplicity=multiplicity,
                        noise_seed=noise_seed, noise_scale=noise_scale)
        fwd = leg(st, fwd_times, f"{n}_fwd")
        amps[n], disps[n] = fwd.amplitudes, fwd.displacements
        if len(back_times) > 1:
            bwd = leg(st, back_times, f"{n}_bwd")
            amps_b[n], disps_b[n] = bwd.amplitudes, bwd.displacements
        else:
            amps_b[n] = fwd.amplitudes[:1]
            disps_b[n] = fwd.displacements[:1]
    return TrajectoryBank(dt, np.asarray(h1.mode_freqs, dtype=float), bright,
                          amps, disps, amps_b, disps_b)


def response_se_gsb(bank: TrajectoryBank, grid: ResponseGrid,
                    dipoles: DipoleSet) -> dict:
    """R1..R4 on the (tau, T_w, t) grid, complex arrays.

    Bra amplitude rows contract the third-pulse dipole (unconjugated mu),
    ket rows the detection dipole (conjugated), except R4's ket which the
    closed form pairs with an unconjugated second-pulse dipole.  Snapshot
    times broadcast to (tau, t); the free-phonon phase e^{i w s} of the
    ground-state interval s is folded into the ket displacements, which is
    exact because it leaves |f| unchanged.
    """
    mu = dipoles.mu
    p1, p2, p3, p4 = dipoles.pulse_factors
    pref = p1 * p2 * p3 * p4
    tau = grid.tau_fs[:, None]
    t = grid.t_fs
    shape = (len(grid.tau_fs), len(grid.tw_fs), len(t))
    out = {k: np.zeros(shape, dtype=complex) for k in ("R1", "R2", "R3", "R4")}

    def ground(s):
        """exp(i omega_q s / hbar), shaped to multiply (..., M, q) displacements."""
        return np.exp(1j * np.multiply.outer(s, bank.mode_freqs) / HBAR_EV_FS)[..., None, :]

    def pathway(bra, ket, phase, mu_ket):
        """sum_ji (A_bra^+ mu)_j (A_ket mu_ket)_i <f_bra_j | f_ket_i phase>."""
        (a_b, f_b), (a_k, f_k) = bra, ket
        x = overlap_matrix(f_b, f_k * phase)
        return np.einsum("...j,...i,...ji->...", a_b.conj() @ mu, a_k @ mu_ket, x)

    for n in bank.bright:
        for n3 in bank.bright:
            d_r123 = pref * mu[n].conjugate() * mu[n3]
            d_r4 = pref * mu[n].conjugate() * mu[n3].conjugate()
            for w, tw in enumerate(grid.tw_fs):
                # R1: bra at T_w, ket at tau+T_w+t, ground phase e^{+i w t}
                out["R1"][:, w] += d_r123 * pathway(
                    bank.forward(n, tw), bank.forward(n3, tau + tw + t),
                    ground(t), mu.conj())
                # R2: bra at tau+T_w, ket at T_w+t, same ground phase
                out["R2"][:, w] += d_r123 * pathway(
                    bank.forward(n, tau + tw), bank.forward(n3, tw + t),
                    ground(t), mu.conj())
                # R3: bra at tau, ket at t, ground phase e^{+i w (T_w + t)}
                out["R3"][:, w] += d_r123 * pathway(
                    bank.forward(n, tau), bank.forward(n3, t),
                    ground(tw + t), mu.conj())
                # R4: bra at -t (backward branch), ket at tau,
                # ground phase e^{-i w T_w}
                out["R4"][:, w] += d_r4 * pathway(
                    bank.backward(n, -t), bank.forward(n3, tau),
                    ground(-tw), mu)
    return out


def _second_leg(h2, a0, f0, t_grid, settings):
    """Propagate a transplanted (non-normalized) state; returns the
    amplitude rows rescaled back to the transplant norm.

    Valid because a global amplitude rescaling commutes with the variational
    equations of motion: the displacement flow is scale-invariant and the
    amplitude flow is linear in the overall prefactor.
    """
    st = MultiD2State(np.ascontiguousarray(a0), np.ascontiguousarray(f0))
    scale = st.norm()
    if scale < 1e-12:
        z = np.zeros((len(t_grid),) + a0.shape, dtype=complex)
        return z, np.broadcast_to(f0, (len(t_grid),) + f0.shape).copy()
    traj = propagate(h2, st.normalized_to_unit(), float(t_grid[-1]),
                     settings, t_eval=t_grid)
    return traj.amplitudes * scale, traj.displacements


def response_esa(
    bank: TrajectoryBank,
    h2: SystemBathHamiltonian,
    grid: ResponseGrid,
    dipoles: DipoleSet,
    settings: Optional[PropagationSettings] = None,
    checkpoint: Optional[str] = None,
    max_second_legs: int = 64 * 4,
) -> dict:
    """R1*, R2* (excited-state absorption) on the (tau, T_w, t) grid.

    Second-leg cost: one doubly-excited propagation per waiting time for R1*
    and one per (tau, T_w) node for R2*; the total is capped at
    `max_second_legs` (raise it deliberately for bigger grids).  With
    `checkpoint` set, completed R2* tau-rows are persisted and reruns resume.
    """
    if dipoles.mu_up is None:
        raise ValueError("ESA needs upward dipoles (mu_up)")
    settings = settings or PropagationSettings()
    mu, mu_up = dipoles.mu, dipoles.mu_up
    p1, p2, p3, p4 = dipoles.pulse_factors
    pref = p1 * p2 * p3 * p4
    n_tau, n_t = len(grid.tau_fs), len(grid.t_fs)
    n_tw = len(grid.tw_fs)
    shape = (n_tau, n_tw, n_t)

    n_legs = n_tw * len(bank.bright) * (1 + n_tau)
    if n_legs > max_second_legs:
        raise ValueError(
            f"{n_legs} second-leg propagations exceed the cost cap "
            f"{max_second_legs}; shrink the tau grid or raise max_second_legs"
        )

    if np.all(np.abs(mu_up) == 0):
        return {"R1s": np.zeros(shape, dtype=complex),
                "R2s": np.zeros(shape, dtype=complex)}

    r1s = np.zeros(shape, dtype=complex)
    r2s = np.zeros(shape, dtype=complex)
    done = 0
    if checkpoint and os.path.exists(checkpoint):
        with np.load(checkpoint) as chk:
            r1s, r2s, done = chk["r1s"], chk["r2s"], int(chk["done"])

    def esa(n3, bra_times, ket):
        """sum_n mu*_n mu_n3 <raised first leg n at bra_times | second leg>."""
        a2, f2 = ket
        out = 0.0
        for n in bank.bright:
            a_b, f_b = bank.forward(n, bra_times)
            out += pref * mu[n].conjugate() * mu[n3] * np.einsum(
                "...jm,...im,...ji->...", (a_b @ mu_up.T).conj(), a2,
                overlap_matrix(f_b, f2))
        return out

    # One second leg per (ket label n3, transplant time); every bra label n
    # reuses it, so the leg loops sit outside the bra loop.
    tau = grid.tau_fs[:, None]
    t = grid.t_fs
    step = 0
    for n3 in bank.bright:
        for w, tw in enumerate(grid.tw_fs):
            # R1*: ket transplanted at T_w, bra = first leg at tau+T_w+t
            if step >= done:
                a_tw, f_tw = bank.forward(n3, tw)
                leg = _second_leg(h2, a_tw @ mu_up.T, f_tw, t, settings)
                r1s[:, w] += esa(n3, tau + tw + t, leg)
            step += 1

            # R2*: ket transplanted at tau+T_w, bra = first leg at T_w+t
            for k, tau_k in enumerate(grid.tau_fs):
                if step >= done:
                    a_k, f_k = bank.forward(n3, tau_k + tw)
                    leg = _second_leg(h2, a_k @ mu_up.T, f_k, t, settings)
                    r2s[k, w] += esa(n3, tw + t, leg)
                    if checkpoint and (k + 1) % CHECKPOINT_STRIDE == 0:
                        _save_checkpoint(checkpoint, r1s, r2s, step + 1)
                step += 1
    if checkpoint:
        _save_checkpoint(checkpoint, r1s, r2s, step)
    return {"R1s": r1s, "R2s": r2s}


def _save_checkpoint(path, r1s, r2s, done):
    tmp = path + ".tmp.npz"   # explicit suffix so numpy does not append one
    np.savez(tmp, r1s=r1s, r2s=r2s, done=done)
    os.replace(tmp, path)


@dataclass(frozen=True)
class Spectrum2D:
    """One waiting-time slice of the 2D maps.

    Maps are complex: the real part is the absorptive spectrum, the
    imaginary part the dispersive counterpart of the same one-sided
    transforms.
    """

    omega_tau: np.ndarray
    omega_t: np.ndarray
    tw_fs: float
    se: np.ndarray
    gsb: np.ndarray
    esa: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.se + self.gsb + self.esa


def _transform_kernels(times, omegas, dt):
    nyquist = np.pi * HBAR_EV_FS / dt
    if np.max(np.abs(omegas)) > nyquist + 1e-12:
        raise ValueError(
            f"requested frequencies exceed the Nyquist limit {nyquist:.3f} eV "
            f"for step {dt} fs"
        )
    weights = np.full(len(times), dt)
    weights[0] = weights[-1] = 0.5 * dt
    phase = np.exp(1j * np.outer(times, omegas) / HBAR_EV_FS)
    return weights[:, None] * phase


def spectra(
    responses: dict,
    grid: ResponseGrid,
    omega_tau: np.ndarray,
    omega_t: np.ndarray,
) -> list:
    """Per-T_w SE/GSB/ESA/TOTAL maps via apodized one-sided transforms.

    responses: dict with R1..R4 and (optionally) R1s/R2s arrays shaped
    (tau, T_w, t); missing ESA keys yield zero ESA maps.
    """
    omega_tau = np.asarray(omega_tau, dtype=float)
    omega_t = np.asarray(omega_t, dtype=float)
    e_t = _transform_kernels(grid.t_fs, omega_t, grid.dt_t)
    e_tau_p = _transform_kernels(grid.tau_fs, omega_tau, grid.dt_tau)
    e_tau_m = e_tau_p.conj()
    apo = np.exp(
        -grid.gamma_prime
        * (grid.tau_fs[:, None] + grid.t_fs[None, :])
        / HBAR_EV_FS
    )

    zero = np.zeros((len(grid.tau_fs), len(grid.tw_fs), len(grid.t_fs)),
                    dtype=complex)
    r1s = responses.get("R1s", zero)
    r2s = responses.get("R2s", zero)

    def xf(r_w, k_tau):
        return k_tau.T @ (apo * r_w) @ e_t

    out = []
    for w, tw in enumerate(grid.tw_fs):
        se = (xf(responses["R2"][:, w, :], e_tau_m)
              + xf(responses["R1"][:, w, :], e_tau_p))
        gsb = (xf(responses["R3"][:, w, :], e_tau_m)
               + xf(responses["R4"][:, w, :], e_tau_p))
        esa = -(xf(r1s[:, w, :], e_tau_m) + xf(r2s[:, w, :], e_tau_p))
        out.append(Spectrum2D(omega_tau.copy(), omega_t.copy(), tw, se, gsb, esa))
    return out


def linear_absorption(
    h1: SystemBathHamiltonian,
    dipoles: DipoleSet,
    omega_grid: np.ndarray,
    gamma_prime: float = 0.01,
    t_max: float = 400.0,
    multiplicity: int = 1,
    noise_seed: int = 0,
    settings: Optional[PropagationSettings] = None,
) -> np.ndarray:
    """F(omega) from the dipole autocorrelation of the singly-excited band."""
    mu = np.asarray(dipoles.mu, dtype=complex)
    strength = float(np.sum(np.abs(mu) ** 2))
    if strength == 0:
        return np.zeros_like(np.asarray(omega_grid, dtype=float))
    noise = 1e-4 if multiplicity > 1 else 0.0
    st = init_state(h1.n_sys, h1.n_modes, mu, multiplicity=multiplicity,
                    noise_seed=noise_seed, noise_scale=noise)
    traj = propagate(h1, st, t_max, settings or PropagationSettings())
    corr = autocorrelation(traj, st) * strength
    return absorption_from_autocorrelation(
        traj.times, corr, gamma_prime, omega_grid)


def diagonal_peaks(spec: np.ndarray, omega_tau, omega_t, n_peaks: int = 2,
                   band: float = 0.03) -> list:
    """Local maxima of |map| near the omega_tau = omega_t diagonal.

    Returns up to n_peaks (omega_tau, omega_t, value) triples sorted by
    |value|, keeping only pixels within `band` (eV) of the diagonal that
    dominate their 3x3 neighborhood.
    """
    omega_tau = np.asarray(omega_tau)
    omega_t = np.asarray(omega_t)
    mags = np.abs(spec)
    hits = []
    for i in range(1, spec.shape[0] - 1):
        for j in range(1, spec.shape[1] - 1):
            if abs(omega_tau[i] - omega_t[j]) > band:
                continue
            patch = mags[i - 1:i + 2, j - 1:j + 2]
            if mags[i, j] == patch.max() and mags[i, j] > 0:
                hits.append((float(omega_tau[i]), float(omega_t[j]),
                             float(spec[i, j].real)))
    hits.sort(key=lambda h: -abs(h[2]))
    dedup = []
    for h in hits:
        if all(abs(h[0] - d[0]) > 2 * band for d in dedup):
            dedup.append(h)
        if len(dedup) == n_peaks:
            break
    return dedup
