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

Finite temperature is therefore only a Hamiltonian transform:
`thermal_double` / `thermal_htc` return the doubled `SystemBathHamiltonian`,
and the ordinary `cavidyn.varprop.init_state` (system label, every register
in vacuum) and `propagate` run on it unchanged.  Observables read exactly as
at zero temperature.
"""

from __future__ import annotations

import numpy as np

from .constants import CLASSICAL_LIMIT_FLOOR, KB_EV_PER_K
from .models import HTCModel, SystemBathHamiltonian, htc_system_bath

#: tilde partners with mixing angle below this are dropped
PRUNE_THRESHOLD = 1e-3


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


def thermal_double(h: SystemBathHamiltonian,
                   theta: np.ndarray) -> SystemBathHamiltonian:
    """Rotated doubled-space Hamiltonian for mixing angles `theta`.

    Modes are ordered [physical 0..Nb-1, kept tilde partners in physical
    order]; a partner whose angle is below `PRUNE_THRESHOLD` is dropped.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (h.n_modes,):
        raise ValueError(
            f"need one mixing angle per mode: got {theta.shape}, expected ({h.n_modes},)"
        )
    keep = theta >= PRUNE_THRESHOLD
    # tilde register: b^+ couples through the physical b coefficients
    # (conjugate phases), scaled by sinh(theta); the b coefficients of both
    # registers follow as the adjoint
    create = np.concatenate(
        [h.coup_create * np.cosh(theta),
         h.coup_annihilate[:, :, keep] * np.sinh(theta[keep])], axis=2)
    return SystemBathHamiltonian(
        h.e_sys.copy(), np.concatenate([h.mode_freqs, -h.mode_freqs[keep]]),
        create)


def thermal_htc(model: HTCModel,
                temperature_k: float) -> SystemBathHamiltonian:
    """Doubled Hamiltonian of `model` at `temperature_k` > 0 K."""
    h = htc_system_bath(model)
    theta = mixing_angles(beta_from_temperature(temperature_k), model.mode_freqs)
    return thermal_double(h, theta)
