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

#: S1<->TT coupling-mode strength (eV) picked by a variational (M=16) scan
#: for a cavity-free triplet-pair population of 0.14 at 300 fs from the
#: vertical S1 start.  Exact propagation, the `exact_population.csv` of an
#: sf oracle-compare run with `coupling_omega = 0` and `fock_cutoff = 21`
#: (dim 1452), gives P_TT(300 fs) = 0.0277 here, which
#: `test_exact_twin_pins_the_calibrated_fission_yield` pins (0.02769 at
#: cutoff 35); the exact curve is smooth in lambda and crosses 0.14 between
#: 0.08 (0.0852) and 0.10 (0.242 at cutoff 35; 0.200 at 21, which is not
#: converged there).  The jumps the variational scan showed at fine lambda
#: resolution are ansatz and integrator noise, not physics.  The value is
#: kept because every fission output depends on it.
LAMBDA_CI_CALIBRATED = 0.065


def nyquist_ev(dt_fs: float) -> float:
    """Largest angular frequency (eV) that samples spaced `dt_fs` resolve:
    pi * hbar / dt."""
    return math.pi * HBAR_EV_FS / dt_fs
