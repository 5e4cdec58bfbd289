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
The names below are re-exported lazily: `import cavidyn` loads no numpy, and
each name imports its module on first access.
"""

import importlib

from .constants import HBAR_EV_FS, KB_EV_PER_K

__version__ = "0.1.0"

#: re-exported name -> (module, attribute)
_LAZY = {
    "TCModel": ("models", "TCModel"),
    "HTCModel": ("models", "HTCModel"),
    "SystemBathHamiltonian": ("models", "SystemBathHamiltonian"),
    "UnsupportedModelError": ("models", "UnsupportedModelError"),
    "disorder_qubit_freqs": ("models", "disorder_qubit_freqs"),
    "tc_system_bath": ("models", "tc_system_bath"),
    "htc_system_bath": ("models", "htc_system_bath"),
    "RunConfig": ("config", "RunConfig"),
    "validate_config": ("config", "validate"),
    "load_config": ("config", "load"),
}

__all__ = ["HBAR_EV_FS", "KB_EV_PER_K", *_LAZY, "run_experiment",
           "__version__"]


def __getattr__(name):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


def run_experiment(cfg, out_dir=None, workers=1, resume=False):
    """Execute a resolved configuration (lazy import of the runner)."""
    from .runner import run

    return run(cfg, out_dir=out_dir, workers=workers, resume=resume)
