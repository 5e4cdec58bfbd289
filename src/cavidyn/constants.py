"""Unit conventions shared across the package.

Energies are in eV, times in fs, temperatures in K.  Time evolution is
exp(-i H t / hbar), so a state of energy E acquires phase exp(-i E t / HBAR_EV_FS).
"""

import math

# hbar in eV*fs
HBAR_EV_FS = 0.6582119569

# Boltzmann constant in eV/K
KB_EV_PER_K = 8.617333262e-5

#: beta*omega/2 below this is out of the thermofield method's validated
#: regime (the mixing angle diverges in the classical limit)
CLASSICAL_LIMIT_FLOOR = 1e-6


def nyquist_ev(dt_fs: float) -> float:
    """Largest angular frequency (eV) that samples spaced `dt_fs` resolve:
    pi * hbar / dt."""
    return math.pi * HBAR_EV_FS / dt_fs
