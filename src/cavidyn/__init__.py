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

__version__ = "0.1.0"
