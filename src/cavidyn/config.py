"""Sectioned text configuration: one schema, validation, and one store.

Configs are INI files with sections [experiment], [model], [run], [disorder],
[temperature], [output].  `_SCHEMA` is the only list of their keys: each
entry holds the key's type converter, its default (None: required) and its
scope.  The scope of an [experiment] key is the experiments it steers, that
of any other key the model kinds it steers (None: every run).  A [model] key
outside the configured kind's scope is a violation.  Any other key out of
scope is tolerated, since one config can serve several subcommands and
models, but left out of the echo.

Validation is total: every violation is collected with its key path
(section.key) before reporting.  Parse problems (malformed INI, non-numeric
values) and constraint violations (out-of-range, unknown keys, unsupported
combinations) are distinct error types so the CLI can exit with different
codes.

A `RunConfig` holds the only copy of the resolved values, `sections`, with
every schema key.  Its attributes read it; `options` and `resolved_text`
keep only the keys in scope, so the `validate` output and every run
manifest name every key that determined the outputs, and may name more:
outside [experiment] scope follows the model kind, so a pes-scan run echoes
[run] and `n_photons`, which it never reads, and `lam_ci`, `eta_s` and
`omega_coupling`, which leave its cuts at Q_c = 0 unchanged.

Every config has a [model] section; an oracle-compare config is checked as
htc or sf dynamics, with `fock_cutoff` for its exact Fock twin.

This module imports no numpy: `validate` checks the values and builds no
model objects, so `cavidyn validate` loads only the standard library.  The
model objects of a `RunConfig` (`tc`, `htc`, `sf_dimers`, `sf_cavity`,
`sf_coupling`) are built from the validated values on first access, which
imports `cavidyn.models` or `cavidyn.sf` then.  They depend on [model] alone;
each fission builder picks its own label set (`cavidyn.sf`).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .constants import (CLASSICAL_LIMIT_FLOOR, KB_EV_PER_K,
                        LAMBDA_CI_CALIBRATED, nyquist_ev)

if TYPE_CHECKING:
    from .models import HTCModel, TCModel
    from .sf import CavitySpec, SFCavityCoupling

EXPERIMENT_KINDS = ("dynamics", "absorption", "pes-scan", "spectra2d",
                    "oracle-compare")
MODEL_KINDS = ("tc", "htc", "sf")


class ConfigParseError(ValueError):
    """Malformed config text or a value that fails type conversion."""


class ConfigConstraintError(ValueError):
    """Schema-valid text whose values violate model constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float_list(text: str):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


_TC_HTC = ("tc", "htc")
_HTC_SF = ("htc", "sf")  # the variational runs
_WINDOWED = ("absorption", "spectra2d")

# (type converter, default, scope) per key; a None default means required.
# The scope of an [experiment] key is the experiments it steers, that of any
# other key the model kinds it steers; None: the key steers every run.
_SCHEMA = {
    "experiment": {
        "kind": (str, "dynamics", EXPERIMENT_KINDS),
        "gamma_prime": (float, 0.01, _WINDOWED),
        "omega_min": (float, 0.7, _WINDOWED),
        "omega_max": (float, 1.3, _WINDOWED),
        "omega_points": (int, 601, _WINDOWED),
        "q_min": (float, -0.4, ("pes-scan",)),
        "q_max": (float, 0.6, ("pes-scan",)),
        "q_points": (int, 251, ("pes-scan",)),
        "fock_cutoff": (int, 6, ("pes-scan", "oracle-compare")),
        "manifold_max": (int, 2, ("pes-scan",)),
        "grid_points": (int, 64, ("spectra2d",)),
        "grid_dt_fs": (float, 0.5, ("spectra2d",)),
        "waiting_times_fs": (_float_list, (0.0, 16.0, 32.0, 48.0),
                             ("spectra2d",)),
    },
    "model": {
        "kind": (str, None, MODEL_KINDS),
        "n_qubits": (int, 1, _TC_HTC),
        "omega_c": (float, 1.0, _TC_HTC),
        "omega_qubit": (float, 1.0, _TC_HTC),
        "omega_r": (float, 0.1, _TC_HTC),
        "kappa": (float, 0.0, _TC_HTC),
        "gamma": (float, 0.0, _TC_HTC),
        "lam": (float, 0.0, ("htc",)),
        "phonon_base": (float, 0.124, ("htc",)),
        "phonon_bandwidth": (float, 0.0, ("htc",)),
        "n_dimers": (int, 1, ("sf",)),
        "coupling_omega": (float, 0.2, ("sf",)),
        "rwa": (_bool, False, ("sf",)),
        "n_photons": (float, 6.0, ("sf",)),
        "cavity_omega_c": (float, 2.256, ("sf",)),
        "cavity_kappa": (float, 0.0, ("sf",)),
        "eps_s1": (float, 2.23, ("sf",)),
        "eps_tt": (float, 2.28, ("sf",)),
        "eps_sn": (float, 4.33, ("sf",)),
        "eps_ttn": (float, 4.68, ("sf",)),
        "omega_tuning": (float, 0.186, ("sf",)),
        "omega_coupling": (float, 0.0154, ("sf",)),
        "lam_ci": (float, LAMBDA_CI_CALIBRATED, ("sf",)),
        "eta_s": (float, 1.0, ("sf",)),
        "eta_t": (float, 1.0, ("sf",)),
    },
    "run": {
        "t_max_fs": (float, 300.0, None),
        "sample_dt_fs": (float, 1.0, None),
        "multiplicity": (int, 1, _HTC_SF),
        "seed": (int, 0, _HTC_SF),  # start noise, drawn at multiplicity > 1
        "rel_tol": (float, 1e-6, _HTC_SF),
        "abs_tol": (float, 1e-8, _HTC_SF),
    },
    "disorder": {
        "width": (_float_list, (0.0,), None),
        "n_realizations": (int, 1, None),
        "seed": (int, 0, _TC_HTC),
    },
    "temperature": {
        "temperature_k": (float, 0.0, None),
    },
    "output": {
        "directory": (str, "out", None),
    },
}


def _tc_model(model: dict) -> TCModel:
    from .models import TCModel

    return TCModel(model["n_qubits"], model["omega_c"], model["omega_qubit"],
                   model["omega_r"], kappa=model["kappa"],
                   gamma=model["gamma"])


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration.

    `sections` maps each section name to its resolved {key: value} for every
    schema key; it is the one copy of every value, and the other attributes
    read it (`steering` only the keys in scope).  The model objects are
    cached properties built from `sections["model"]` on first access; each
    is None unless the model kind uses it.
    """

    sections: dict

    @property
    def experiment(self) -> str:
        return self.sections["experiment"]["kind"]

    @property
    def model_kind(self) -> str:
        return self.sections["model"]["kind"]

    @property
    def run(self) -> SimpleNamespace:
        return SimpleNamespace(**self.sections["run"])

    @property
    def disorder(self) -> SimpleNamespace:
        return SimpleNamespace(**self.sections["disorder"])

    def steering(self, name: str) -> dict:
        """Section `name` without the keys whose scope leaves out this
        run's experiment ([experiment]) or model kind (other sections)."""
        kind = self.experiment if name == "experiment" else self.model_kind
        schema = _SCHEMA[name]
        return {key: value for key, value in self.sections[name].items()
                if schema[key][2] is None or kind in schema[key][2]}

    @property
    def options(self) -> dict:
        """The [experiment] keys that steer this experiment."""
        return self.steering("experiment")

    @property
    def temperature_k(self) -> float:
        return self.sections["temperature"]["temperature_k"]

    @property
    def out_dir(self) -> str:
        return self.sections["output"]["directory"]

    @cached_property
    def tc(self) -> Optional[TCModel]:
        if self.model_kind != "tc":
            return None
        return _tc_model(self.sections["model"])

    @cached_property
    def htc(self) -> Optional[HTCModel]:
        if self.model_kind != "htc":
            return None
        from .models import HTCModel

        model = self.sections["model"]
        return HTCModel(_tc_model(model), model["lam"], model["phonon_base"],
                        model["phonon_bandwidth"])

    @cached_property
    def sf_dimers(self) -> Optional[tuple]:
        if self.model_kind != "sf":
            return None
        from .sf import SFDimerSpec

        model = self.sections["model"]
        dimer = SFDimerSpec(
            eps_s1=model["eps_s1"], eps_tt=model["eps_tt"],
            eps_sn=model["eps_sn"], eps_ttn=model["eps_ttn"],
            omega_tu=model["omega_tuning"], omega_cu=model["omega_coupling"],
            lam_ci=model["lam_ci"], eta_s=model["eta_s"], eta_t=model["eta_t"],
        )
        return (dimer,) * model["n_dimers"]

    @cached_property
    def sf_cavity(self) -> Optional[CavitySpec]:
        if self.model_kind != "sf":
            return None
        from .sf import CavitySpec

        model = self.sections["model"]
        return CavitySpec(omega_c=model["cavity_omega_c"],
                          kappa=model["cavity_kappa"])

    @cached_property
    def sf_coupling(self) -> Optional[SFCavityCoupling]:
        if self.model_kind != "sf":
            return None
        from .sf import SFCavityCoupling

        model = self.sections["model"]
        return SFCavityCoupling(omega=model["coupling_omega"],
                                rwa=model["rwa"])


def _read_sections(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _convert(sections: dict) -> tuple[dict, list]:
    """Apply the schema: type-convert known keys, flag unknown ones."""
    resolved = {}
    violations = []
    for name, keys in sections.items():
        if name not in _SCHEMA:
            violations.append(f"{name}: unknown section")
            continue
        schema = _SCHEMA[name]
        out = {}
        for key, value in keys.items():
            if key not in schema:
                violations.append(f"{name}.{key}: unknown key")
                continue
            conv = schema[key][0]
            try:
                out[key] = conv(value)
            except ValueError as exc:
                raise ConfigParseError(
                    f"{name}.{key}: cannot parse {value!r} ({exc})"
                ) from exc
        resolved[name] = out
    for name, schema in _SCHEMA.items():
        out = resolved.setdefault(name, {})
        for key, (_, default, _) in schema.items():
            if key not in out and default is not None:
                out[key] = default
    return resolved, violations


def _check(cond: bool, violations: list, message: str) -> bool:
    if not cond:
        violations.append(message)
    return cond


def file_tag(value: float) -> str:
    """The `%g` tag that names one width's or waiting time's output file."""
    return "%g" % value


def _on_grid(t: float, dt: float) -> bool:
    """Whether `t` is a whole number of `dt` steps, to 1e-9 fs."""
    return abs(round(t / dt) * dt - t) <= 1e-9


def _check_tags(values, violations: list, key: str) -> None:
    tags = [file_tag(v) for v in values]
    shared = sorted({t for t in tags if tags.count(t) > 1})
    _check(not shared, violations,
           f"{key}: values sharing the output file tag {', '.join(shared)} "
           "would overwrite each other's file; make them differ in the "
           "first 6 significant digits")


def validate(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse + validate config text; raises ConfigParseError or
    ConfigConstraintError (with the full violation list).

    overrides: {section: {key: raw string}} applied over the parsed text
    (used by the CLI for --seed and the experiment subcommands).
    """
    sections = _read_sections(text)
    for name, keys in (overrides or {}).items():
        sections.setdefault(name, {}).update(
            {k: str(v) for k, v in keys.items()})
    raw, violations = _convert(sections)

    exp = raw["experiment"]
    model = raw["model"]
    run = raw["run"]
    dis = raw["disorder"]
    temp_k = raw["temperature"]["temperature_k"]

    _check(exp["kind"] in EXPERIMENT_KINDS, violations,
           f"experiment.kind: {exp['kind']!r} not one of {EXPERIMENT_KINDS}")

    kind = model.get("kind")
    if kind is None:
        violations.append("model.kind: required")
    elif kind not in MODEL_KINDS:
        violations.append(f"model.kind: {kind!r} not one of {MODEL_KINDS}")
    else:
        for key in sorted(sections.get("model", {})):
            if key in _SCHEMA["model"] and kind not in _SCHEMA["model"][key][2]:
                violations.append(f"model.{key}: not a {kind} model key")

    # run section
    _check(run["t_max_fs"] > 0, violations, "run.t_max_fs: must be > 0")
    _check(run["sample_dt_fs"] > 0, violations,
           "run.sample_dt_fs: must be > 0")
    _check(run["multiplicity"] >= 1, violations,
           "run.multiplicity: must be >= 1")
    _check(run["rel_tol"] > 0, violations, "run.rel_tol: must be > 0")
    _check(run["abs_tol"] > 0, violations, "run.abs_tol: must be > 0")
    _check(run["seed"] >= 0, violations, "run.seed: must be >= 0")
    dt = run["sample_dt_fs"]
    dynamics = exp["kind"] in ("dynamics", "oracle-compare")  # run as such
    # htc absorption samples its autocorrelation on the dynamics time axis
    htc_absorption = (exp["kind"], kind) == ("absorption", "htc")
    if (dynamics or htc_absorption) and run["t_max_fs"] > 0 and dt > 0:
        # the runner samples round(t_max_fs / dt) + 1 times
        _check(_on_grid(run["t_max_fs"], dt), violations,
               f"run.t_max_fs: must be a whole number of {dt} fs samples "
               "(run.sample_dt_fs)")
    # the step (and its key) of the samples behind an omega window
    window_step = (dt, "run.sample_dt_fs") if htc_absorption and dt > 0 else None

    # disorder section
    _check(all(w >= 0 for w in dis["width"]), violations,
           "disorder.width: widths must be >= 0")
    _check(len(dis["width"]) >= 1, violations,
           "disorder.width: need at least one width")
    _check_tags(dis["width"], violations, "disorder.width")
    _check(dis["n_realizations"] >= 1, violations,
           "disorder.n_realizations: must be >= 1")
    # the seed is one word of the disorder draws' Philox key
    _check(0 <= dis["seed"] < 2 ** 64, violations,
           "disorder.seed: must lie in [0, 2**64 - 1]")
    _check(temp_k >= 0, violations,
           "temperature.temperature_k: must be >= 0")

    if kind in ("tc", "htc"):
        # htc carries one phonon mode per emitter on a periodic register
        min_qubits = 2 if kind == "htc" else 1
        _check(model["n_qubits"] >= min_qubits, violations,
               f"model.n_qubits: must be >= {min_qubits} for the {kind} model")
        _check(model["omega_c"] > 0, violations, "model.omega_c: must be > 0")
        _check(model["omega_qubit"] > 0, violations,
               "model.omega_qubit: must be > 0")
        _check(model["omega_r"] >= 0, violations,
               "model.omega_r: must be >= 0")
        _check(model["kappa"] >= 0, violations, "model.kappa: must be >= 0")
        _check(model["gamma"] >= 0, violations, "model.gamma: must be >= 0")
    if kind == "htc":
        _check(model["lam"] >= 0, violations, "model.lam: must be >= 0")
        _check(model["phonon_base"] > 0, violations,
               "model.phonon_base: must be > 0")
        bandwidth_ok = _check(
            0 <= model["phonon_bandwidth"] < 1, violations,
            "model.phonon_bandwidth: must lie in [0, 1) so every mode "
            "frequency stays positive")
        if temp_k > 0 and model["phonon_base"] > 0 and bandwidth_ok:
            # the thermofield rule (thermofield.mixing_angles) on the lowest
            # mode, k = 0, which every register of n_qubits >= 2 holds
            omega_min = model["phonon_base"] * (1.0 - model["phonon_bandwidth"])
            x = 1.0 / (KB_EV_PER_K * temp_k) * omega_min / 2.0
            _check(x >= CLASSICAL_LIMIT_FLOOR, violations,
                   f"temperature.temperature_k: beta*omega/2 = {x:.3e} of the "
                   f"lowest phonon mode is below {CLASSICAL_LIMIT_FLOOR:.0e} "
                   "(classical limit); reduce the temperature")
    if kind == "sf":
        _check(model["n_dimers"] in (1, 2), violations,
               "model.n_dimers: unsupported (only 1 or 2 dimers)")
        _check(model["coupling_omega"] >= 0, violations,
               "model.coupling_omega: must be >= 0")
        _check(model["cavity_omega_c"] > 0, violations,
               "model.cavity_omega_c: must be > 0")
        _check(model["cavity_kappa"] >= 0, violations,
               "model.cavity_kappa: must be >= 0")
        _check(model["eta_s"] >= 0, violations, "model.eta_s: must be >= 0")
        _check(model["eta_t"] >= 0, violations, "model.eta_t: must be >= 0")
        _check(0 <= model["n_photons"] <= 25, violations,
               "model.n_photons: coherent pump mean must lie in [0, 25]")
        _check(model["omega_tuning"] > 0, violations,
               "model.omega_tuning: must be > 0")
        _check(model["omega_coupling"] > 0, violations,
               "model.omega_coupling: must be > 0")
        _check(model["eps_s1"] < model["eps_tt"], violations,
               "model.eps_s1: must be below eps_tt (uphill fission)")
        if dynamics or exp["kind"] == "pes-scan":
            _check(model["cavity_kappa"] == 0, violations,
                   f"model.cavity_kappa: sf {exp['kind']} runs need a "
                   "lossless cavity")
        if exp["kind"] == "spectra2d":
            if "rwa" in sections.get("model", {}):
                _check(model["rwa"], violations,
                       "model.rwa: spectra2d works in excitation-number "
                       "blocks and requires the rotating-wave coupling")
            else:
                model["rwa"] = True
        _check(dis["width"] == (0.0,) and dis["n_realizations"] == 1,
               violations, "disorder: unsupported for the sf model")
        _check(temp_k == 0, violations,
               "temperature.temperature_k: finite temperature is "
               "unsupported for the sf model")
    if kind == "tc":
        _check(temp_k == 0, violations,
               "temperature.temperature_k: the tc model has no phonon "
               "bath to thermalize")

    # experiment/model compatibility
    if exp["kind"] in ("pes-scan", "spectra2d"):
        _check(kind == "sf", violations,
               f"experiment.kind: {exp['kind']} requires the sf model")
    if exp["kind"] == "absorption":
        _check(kind in ("tc", "htc"), violations,
               "experiment.kind: absorption requires the tc or htc model")
        if kind == "tc":
            _check(model["kappa"] + model["gamma"] > 0, violations,
                   "model.kappa: the pole lineshape needs a linewidth — set "
                   "kappa or gamma > 0 for a tc absorption run")
    if exp["kind"] == "oracle-compare":
        _check(kind in _HTC_SF, violations,
               "experiment.kind: oracle-compare requires the htc or sf "
               "model; tc dynamics already is the exact pole sum")
        _check(exp["fock_cutoff"] >= 1, violations,
               "experiment.fock_cutoff: must be >= 1")
    if exp["kind"] == "spectra2d":
        _check({"omega_min", "omega_max"} <= set(sections["experiment"]),
               violations, "experiment.omega_min, experiment.omega_max: "
               "spectra2d needs its window set; the default 0.7-1.3 eV "
               "holds no transition of the fission dimer")
        _check(exp["grid_points"] >= 2, violations,
               "experiment.grid_points: must be >= 2")
        dt = exp["grid_dt_fs"]
        if _check(dt > 0, violations, "experiment.grid_dt_fs: must be > 0"):
            tws = exp["waiting_times_fs"]
            _check(len(tws) >= 1 and all(
                w >= 0 and _on_grid(w, dt) for w in tws),
                violations, "experiment.waiting_times_fs: need one or more "
                f"waiting times >= 0 on the {dt} fs grid")
            _check_tags(tws, violations, "experiment.waiting_times_fs")
            window_step = (dt, "experiment.grid_dt_fs")
    if window_step is not None:
        nyquist = nyquist_ev(window_step[0])
        _check(max(abs(exp["omega_min"]), abs(exp["omega_max"]))
               <= nyquist + 1e-12, violations,
               f"experiment.omega_max: the omega window exceeds the Nyquist "
               f"limit {nyquist:.3f} eV of the {window_step[0]} fs steps "
               f"({window_step[1]})")
    if exp["kind"] in ("absorption", "spectra2d"):
        _check(exp["gamma_prime"] > 0, violations,
               "experiment.gamma_prime: must be > 0")
        _check(exp["omega_points"] >= 2, violations,
               "experiment.omega_points: must be >= 2")
        _check(exp["omega_max"] > exp["omega_min"], violations,
               "experiment.omega_max: must exceed omega_min")
    if exp["kind"] == "pes-scan":
        _check(exp["q_points"] >= 2, violations,
               "experiment.q_points: must be >= 2")
        _check(exp["q_max"] > exp["q_min"], violations,
               "experiment.q_max: must exceed q_min")
        _check(exp["fock_cutoff"] >= exp["manifold_max"] + 4, violations,
               "experiment.fock_cutoff: must be >= manifold_max + 4 = "
               f"{exp['manifold_max'] + 4}")

    if violations:
        raise ConfigConstraintError(violations)

    return RunConfig(raw)


def load(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Read and validate the config file at `path`; text that is not UTF-8
    is a ConfigParseError, an unreadable path an OSError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text ({exc})") from exc
    return validate(text, overrides=overrides)


def resolved_text(cfg: RunConfig) -> str:
    """Canonical INI echo of the resolved configuration: its sections in
    schema order, their keys sorted."""
    out = io.StringIO()
    for name in _SCHEMA:
        body = cfg.steering(name)
        if not body:
            continue
        out.write(f"[{name}]\n")
        for key in sorted(body):
            val = body[key]
            if isinstance(val, tuple):
                val = " ".join(repr(v) for v in val)
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()
