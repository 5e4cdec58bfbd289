"""Finite-temperature propagation by doubling the phonon space.

A thermal bath average is traded for unitary dynamics on twice the modes: each
physical mode omega_q gains a partner ("tilde") mode entering the free
Hamiltonian with -omega_q, and a temperature-dependent Bogoliubov rotation

    b_q      -> b_q cosh(theta_q) + tilde_b_q^+ sinh(theta_q),
    theta_q  = arctanh(exp(-beta*omega_q/2)),

turns the thermal initial condition into the plain two-register vacuum.  Under
the rotation the free part omega_q (b^+ b - tilde_b^+ tilde_b) is invariant,
while a system-bath coupling c^+_q b_q^+ + c_q b_q picks up

    cosh(theta_q) (c^+_q b_q^+ + c_q b_q)  +  sinh(theta_q) (c_q tilde_b_q^+ + c^+_q tilde_b_q),

i.e. the tilde register couples through the conjugate phases, scaled by
sinh(theta).  High-frequency modes have theta ~ exp(-beta*omega/2) ~ 0 and
their inert tilde partners are pruned below a threshold.

The doubled problem is propagated by the ordinary variational engine
(`cavidyn.varprop`), whose amplitudes are taken over normalized coherent
states in the doubled space as everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import KB_EV_PER_K
from .models import HTCModel, SystemBathHamiltonian, htc_system_bath
from .varprop import (
    MultiD2State,
    PropagationSettings,
    Trajectory,
    init_state,
    propagate,
)

#: tilde partners with mixing angle below this are dropped
DEFAULT_PRUNE_THRESHOLD = 1e-3

#: beta*omega/2 below this is out of the method's validated regime
CLASSICAL_LIMIT_FLOOR = 1e-6


class ClassicalLimitError(ValueError):
    """Temperature too high for the doubled-mode construction to be meaningful."""


def beta_from_temperature(temperature_k: float) -> float:
    if temperature_k <= 0:
        raise ValueError("temperature must be > 0 K (0 disables the thermal layer)")
    return 1.0 / (KB_EV_PER_K * temperature_k)


def mixing_angles(beta: float, mode_freqs: np.ndarray) -> np.ndarray:
    """theta_q = arctanh(exp(-beta*omega_q/2)); strictly decreasing in both
    beta and omega_q."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    w = np.asarray(mode_freqs, dtype=float)
    if np.any(w <= 0):
        raise ValueError("mixing angles need all mode frequencies > 0")
    x = beta * w / 2.0
    if np.any(x < CLASSICAL_LIMIT_FLOOR):
        raise ClassicalLimitError(
            f"beta*omega/2 = {x.min():.3e} below {CLASSICAL_LIMIT_FLOOR:.0e}: "
            "mixing angle diverges (classical limit); reduce the temperature"
        )
    return np.arctanh(np.exp(-x))


@dataclass(frozen=True)
class ThermalDoubledModel:
    """Doubled-register Hamiltonian plus bookkeeping.

    hamiltonian: modes ordered [physical 0..Nb-1, kept tildes]; tilde_of[q]
    gives the doubled-register index of mode q's partner, or -1 if pruned.
    """

    hamiltonian: SystemBathHamiltonian
    theta: np.ndarray
    tilde_of: np.ndarray
    n_physical: int

    @property
    def n_modes_doubled(self) -> int:
        return self.hamiltonian.n_modes


def thermal_double(
    h: SystemBathHamiltonian,
    theta: np.ndarray,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
) -> ThermalDoubledModel:
    """Rotated doubled-space Hamiltonian for mixing angles `theta`."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (h.n_modes,):
        raise ValueError(
            f"need one mixing angle per mode: got {theta.shape}, expected ({h.n_modes},)"
        )
    keep = theta >= prune_threshold
    n_phys = h.n_modes
    n_tilde = int(keep.sum())
    ns = h.n_sys

    mode_freqs = np.concatenate([h.mode_freqs, -h.mode_freqs[keep]])
    cosh = np.cosh(theta)
    sinh = np.sinh(theta)

    create = np.zeros((ns, ns, n_phys + n_tilde), dtype=complex)
    annihilate = np.zeros_like(create)
    create[:, :, :n_phys] = h.coup_create * cosh[None, None, :]
    annihilate[:, :, :n_phys] = h.coup_annihilate * cosh[None, None, :]
    # tilde register: create couples through the physical annihilate
    # coefficients (conjugate phases), scaled by sinh(theta)
    create[:, :, n_phys:] = h.coup_annihilate[:, :, keep] * sinh[None, None, keep]
    annihilate[:, :, n_phys:] = h.coup_create[:, :, keep] * sinh[None, None, keep]

    tilde_of = np.full(n_phys, -1, dtype=int)
    tilde_of[keep] = n_phys + np.arange(n_tilde)

    doubled = SystemBathHamiltonian(
        e_sys=h.e_sys.copy(),
        mode_freqs=mode_freqs,
        coup_create=create,
        coup_annihilate=annihilate,
        hermitian=h.hermitian,
    )
    return ThermalDoubledModel(doubled, theta, tilde_of, n_phys)


def thermal_htc(
    model: HTCModel,
    temperature_k: float,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
) -> ThermalDoubledModel:
    h = htc_system_bath(model)
    theta = mixing_angles(beta_from_temperature(temperature_k), model.mode_freqs)
    return thermal_double(h, theta, prune_threshold)


def thermal_init_state(
    doubled: ThermalDoubledModel,
    initial,
    multiplicity: int = 1,
    noise_seed: int = 0,
    noise_scale: float = 1e-4,
    labels: Optional[tuple[str, ...]] = None,
) -> MultiD2State:
    """Rotated-frame initial state: requested system label, every register in
    vacuum (the rotation has absorbed the Boltzmann weights)."""
    return init_state(
        doubled.hamiltonian.n_sys,
        doubled.n_modes_doubled,
        initial,
        multiplicity=multiplicity,
        noise_seed=noise_seed,
        noise_scale=noise_scale,
        labels=labels,
    )


def thermal_propagate(
    doubled: ThermalDoubledModel,
    state: MultiD2State,
    t_final: float,
    settings: Optional[PropagationSettings] = None,
    t_eval: Optional[np.ndarray] = None,
) -> Trajectory:
    """Propagate in the doubled space; observables read exactly as at zero T."""
    return propagate(doubled.hamiltonian, state, t_final, settings, t_eval)


def dressed_coupling_scale(lam: float, theta: np.ndarray) -> float:
    """sum_k lam*cosh(theta_k) + sum_k lam*sinh(theta_k): grows from
    lam*n_modes at T=0 and diverges in the classical limit."""
    return float(lam * (np.cosh(theta).sum() + np.sinh(theta).sum()))


def polaron_decoupling_ratio(
    n_qubits: int, omega_r: float, lam: float, omega_k: float
) -> float:
    """Reported diagnostic 2*N*omega_R / (lam^2 * omega_k); no behavior is
    attached to its value."""
    if lam <= 0 or omega_k <= 0:
        raise ValueError("ratio needs lam > 0 and omega_k > 0")
    return 2.0 * n_qubits * omega_r / (lam**2 * omega_k)
