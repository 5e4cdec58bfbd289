"""Sectioned text configuration: schema, validation, and resolution.

Configs are INI files with sections [experiment], [model], [run], [disorder],
[temperature], [output].  Validation is total: every violation is collected
with its key path (section.key) before reporting.  Parse problems (malformed
INI, non-numeric values) and constraint violations (out-of-range, unknown
keys, unsupported combinations) are distinct error types so the CLI can exit
with different codes.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Optional

from .models import HTCModel, TCModel
from .sf import CavitySpec, SFCavityCoupling, SFDimerSpec

EXPERIMENT_KINDS = ("dynamics", "absorption", "pes-scan", "spectra2d",
                    "oracle-compare")
MODEL_KINDS = ("tc", "htc", "sf")
ORACLE_PAIRS = ("tc", "htc-dense", "corrupted-metric")


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


# (type converter, default) per key; None default means required
_SCHEMA = {
    "experiment": {
        "kind": (str, "dynamics"),
        # absorption / spectra2d windows
        "gamma_prime": (float, 0.01),
        "omega_min": (float, 0.7),
        "omega_max": (float, 1.3),
        "omega_points": (int, 601),
        # pes-scan
        "q_min": (float, -0.4),
        "q_max": (float, 0.6),
        "q_points": (int, 251),
        "fock_cutoff": (int, 6),
        "manifold_max": (int, 2),
        # spectra2d
        "grid_points": (int, 64),
        "grid_dt_fs": (float, 0.5),
        "waiting_times_fs": (_float_list, (0.0, 16.0, 32.0, 48.0)),
        "max_second_legs": (int, 512),
        # oracle-compare
        "pair": (str, "tc"),
    },
    "model": {
        "kind": (str, None),
        # tc / htc
        "n_qubits": (int, 1),
        "omega_c": (float, 1.0),
        "omega_qubit": (float, 1.0),
        "omega_r": (float, 0.1),
        "kappa": (float, 0.0),
        "gamma": (float, 0.0),
        # htc extras
        "lam": (float, 0.0),
        "phonon_base": (float, 0.124),
        "phonon_bandwidth": (float, 0.0),
        # sf
        "n_dimers": (int, 1),
        "coupling_omega": (float, 0.2),
        "rwa": (_bool, False),
        "n_photons": (float, 6.0),
        "cavity_omega_c": (float, 2.256),
        "cavity_kappa": (float, 0.0),
        "eps_s1": (float, 2.23),
        "eps_tt": (float, 2.28),
        "eps_sn": (float, 4.33),
        "eps_ttn": (float, 4.68),
        "omega_tuning": (float, 0.186),
        "omega_coupling": (float, 0.0154),
        "lam_ci": (float, None),   # defaulted from the calibrated value
        "eta_s": (float, 1.0),
        "eta_t": (float, 1.0),
    },
    "run": {
        "t_max_fs": (float, 300.0),
        "sample_dt_fs": (float, 1.0),
        "multiplicity": (int, 1),
        "seed": (int, 0),
        "rel_tol": (float, 1e-6),
        "abs_tol": (float, 1e-8),
    },
    "disorder": {
        "width": (_float_list, (0.0,)),
        "n_realizations": (int, 1),
        "seed": (int, 0),
    },
    "temperature": {
        "temperature_k": (float, 0.0),
    },
    "output": {
        "directory": (str, "out"),
    },
}

_MODEL_KEYS = {
    "tc": {"kind", "n_qubits", "omega_c", "omega_qubit", "omega_r", "kappa",
           "gamma"},
    "htc": {"kind", "n_qubits", "omega_c", "omega_qubit", "omega_r", "kappa",
            "gamma", "lam", "phonon_base", "phonon_bandwidth"},
    "sf": {"kind", "n_dimers", "coupling_omega", "rwa", "n_photons",
           "cavity_omega_c", "cavity_kappa", "eps_s1", "eps_tt", "eps_sn",
           "eps_ttn", "omega_tuning", "omega_coupling", "lam_ci", "eta_s",
           "eta_t"},
}

# Experiment keys that actually steer each experiment kind.  Foreign keys are
# tolerated (one config can serve several subcommands) but dropped from the
# resolved echo so the manifest records only what determined the outputs.
_EXPERIMENT_KEYS = {
    "dynamics": {"kind"},
    "absorption": {"kind", "gamma_prime", "omega_min", "omega_max",
                   "omega_points"},
    "pes-scan": {"kind", "q_min", "q_max", "q_points", "fock_cutoff",
                 "manifold_max"},
    "spectra2d": {"kind", "gamma_prime", "omega_min", "omega_max",
                  "omega_points", "grid_points", "grid_dt_fs",
                  "waiting_times_fs", "max_second_legs"},
    "oracle-compare": {"kind", "pair"},
}


@dataclass(frozen=True)
class RunSection:
    t_max_fs: float
    sample_dt_fs: float
    multiplicity: int
    seed: int
    rel_tol: float
    abs_tol: float


@dataclass(frozen=True)
class DisorderSection:
    width: tuple
    n_realizations: int
    seed: int


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; every field carries its final value."""

    experiment: str
    model_kind: str
    run: RunSection
    disorder: DisorderSection
    temperature_k: float
    out_dir: str
    options: dict = field(default_factory=dict)
    tc: Optional[TCModel] = None
    htc: Optional[HTCModel] = None
    sf_dimers: Optional[tuple] = None
    sf_cavity: Optional[CavitySpec] = None
    sf_coupling: Optional[SFCavityCoupling] = None
    sf_n_photons: float = 0.0
    raw: dict = field(default_factory=dict)


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
        for key, (_, default) in schema.items():
            if key not in out and default is not None:
                out[key] = default
    return resolved, violations


def _check(cond: bool, violations: list, message: str) -> bool:
    if not cond:
        violations.append(message)
    return cond


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
    out_dir = raw["output"]["directory"]

    _check(exp["kind"] in EXPERIMENT_KINDS, violations,
           f"experiment.kind: {exp['kind']!r} not one of {EXPERIMENT_KINDS}")

    kind = model.get("kind")
    if kind is None:
        violations.append("model.kind: required")
    elif kind not in MODEL_KINDS:
        violations.append(f"model.kind: {kind!r} not one of {MODEL_KINDS}")
    else:
        given = set(sections.get("model", {}))
        extra = given - _MODEL_KEYS[kind]
        for key in sorted(extra):
            if key in _SCHEMA["model"]:
                violations.append(
                    f"model.{key}: not a {kind} model key")

    # run section
    _check(run["t_max_fs"] > 0, violations, "run.t_max_fs: must be > 0")
    _check(run["sample_dt_fs"] > 0, violations,
           "run.sample_dt_fs: must be > 0")
    _check(run["multiplicity"] >= 1, violations,
           "run.multiplicity: must be >= 1")
    _check(run["rel_tol"] > 0, violations, "run.rel_tol: must be > 0")
    _check(run["abs_tol"] > 0, violations, "run.abs_tol: must be > 0")
    _check(run["seed"] >= 0, violations, "run.seed: must be >= 0")

    # disorder section
    _check(all(w >= 0 for w in dis["width"]), violations,
           "disorder.width: widths must be >= 0")
    _check(len(dis["width"]) >= 1, violations,
           "disorder.width: need at least one width")
    _check(dis["n_realizations"] >= 1, violations,
           "disorder.n_realizations: must be >= 1")
    _check(temp_k >= 0, violations,
           "temperature.temperature_k: must be >= 0")

    tc = htc = None
    dimers = cavity = coupling = None
    if kind in ("tc", "htc"):
        _check(model["n_qubits"] >= 1, violations,
               "model.n_qubits: must be >= 1")
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
        _check(0 <= model["phonon_bandwidth"] < 1, violations,
               "model.phonon_bandwidth: must lie in [0, 1) so every mode "
               "frequency stays positive")
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
        if exp["kind"] == "dynamics":
            _check(model["cavity_kappa"] == 0, violations,
                   "model.cavity_kappa: loss is unsupported in the "
                   "coherent-photon dynamics representation")
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
        if kind == "htc":
            _check(dis["width"] == (0.0,) and dis["n_realizations"] == 1,
                   violations,
                   "disorder: htc absorption has no ensemble path")
    if exp["kind"] == "oracle-compare":
        _check(exp["pair"] in ORACLE_PAIRS, violations,
               f"experiment.pair: {exp['pair']!r} not one of {ORACLE_PAIRS}")
    if exp["kind"] == "spectra2d":
        _check(exp["grid_points"] >= 2, violations,
               "experiment.grid_points: must be >= 2")
        _check(exp["grid_dt_fs"] > 0, violations,
               "experiment.grid_dt_fs: must be > 0")
        _check(exp["max_second_legs"] >= 1, violations,
               "experiment.max_second_legs: must be >= 1")
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

    if violations:
        raise ConfigConstraintError(violations)

    if kind in ("tc", "htc"):
        tc = TCModel(model["n_qubits"], model["omega_c"],
                     model["omega_qubit"], model["omega_r"],
                     kappa=model["kappa"], gamma=model["gamma"])
    if kind == "htc":
        htc = HTCModel(tc, model["lam"], model["phonon_base"],
                       model["phonon_bandwidth"])
        tc = None
    if kind == "sf":
        dimer_kwargs = dict(
            eps_s1=model["eps_s1"], eps_tt=model["eps_tt"],
            eps_sn=model["eps_sn"], eps_ttn=model["eps_ttn"],
            omega_tu=model["omega_tuning"], omega_cu=model["omega_coupling"],
            eta_s=model["eta_s"], eta_t=model["eta_t"],
        )
        if "lam_ci" in model:
            dimer_kwargs["lam_ci"] = model["lam_ci"]
        dimers = tuple(SFDimerSpec(**dimer_kwargs)
                       for _ in range(model["n_dimers"]))
        cavity = CavitySpec(omega_c=model["cavity_omega_c"],
                            kappa=model["cavity_kappa"])
        coupling = SFCavityCoupling(
            omega=model["coupling_omega"], rwa=model["rwa"],
            n_dimers=model["n_dimers"],
            five_state=exp["kind"] == "spectra2d",
        )

    raw["experiment"] = {k: v for k, v in exp.items()
                         if k in _EXPERIMENT_KEYS[exp["kind"]]}
    raw["model"] = {k: v for k, v in model.items()
                    if k in _MODEL_KEYS[kind]}

    return RunConfig(
        experiment=exp["kind"],
        model_kind=kind,
        run=RunSection(run["t_max_fs"], run["sample_dt_fs"],
                       run["multiplicity"], run["seed"],
                       run["rel_tol"], run["abs_tol"]),
        disorder=DisorderSection(dis["width"], dis["n_realizations"],
                                 dis["seed"]),
        temperature_k=temp_k,
        out_dir=out_dir,
        options=dict(exp),
        tc=tc, htc=htc,
        sf_dimers=dimers, sf_cavity=cavity, sf_coupling=coupling,
        sf_n_photons=model.get("n_photons", 0.0),
        raw=raw,
    )


def load(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return validate(fh.read())


def resolved_text(cfg: RunConfig) -> str:
    """Canonical INI echo of the resolved configuration."""
    out = io.StringIO()
    for name in ("experiment", "model", "run", "disorder", "temperature",
                 "output"):
        body = dict(cfg.raw.get(name, {}))
        if name == "output":
            body["directory"] = cfg.out_dir
        if name == "run":
            body["seed"] = cfg.run.seed
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
