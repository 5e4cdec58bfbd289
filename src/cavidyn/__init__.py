"""cavidyn: dynamics and spectra of cavity-coupled emitter and molecular models.

Three layers:

* analytic single-excitation propagators for the lossy emitter-cavity model
  (`cavidyn.tc_exact`), with linear absorption; `cavidyn.runner` averages
  them over disorder ensembles;
* a variational propagator over multi-configuration coherent-state
  wavefunctions for system+bath Hamiltonians (`cavidyn.varprop`), with a
  thermal-double extension for finite temperature (`cavidyn.thermofield`);
* a cavity-modified singlet-fission dimer model (`cavidyn.sf`) with
  potential-energy scans, pumped dynamics, and third-order two-dimensional
  spectra (`cavidyn.spectro`).

`cavidyn.cli` exposes all of it behind a config-file driven command line.
"""

from .constants import HBAR_EV_FS, KB_EV_PER_K
from .models import (
    HTCModel,
    SystemBathHamiltonian,
    TCModel,
    UnsupportedModelError,
    disorder_qubit_freqs,
    htc_system_bath,
    tc_system_bath,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_EV_FS",
    "KB_EV_PER_K",
    "TCModel",
    "HTCModel",
    "SystemBathHamiltonian",
    "UnsupportedModelError",
    "disorder_qubit_freqs",
    "tc_system_bath",
    "htc_system_bath",
    "RunConfig",
    "validate_config",
    "load_config",
    "run_experiment",
    "__version__",
]

from .config import RunConfig, load as load_config, validate as validate_config


def run_experiment(cfg, out_dir=None, workers=1, resume=False):
    """Execute a resolved configuration (lazy import of the runner)."""
    from .runner import run

    return run(cfg, out_dir=out_dir, workers=workers, resume=resume)
