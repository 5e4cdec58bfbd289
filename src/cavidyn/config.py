"""Sectioned text configuration: one schema, validation, and one store.

Configs are INI files with sections [experiment], [model], [run], [disorder]
and [temperature]; the output directory is not a config key but the CLI's
`--out`.  A config names one run, an (experiment, model kind) pair of
`RUNS`.  `_SCHEMA` is the only list of the keys: each entry holds the key's
type converter, its default (None: required), its scope and its rule.

A scope is the set of runs the key steers, and a rule the key's own bound
(> 0, >= n, an interval or a choice), checked only where the key steers.
Checks that join two keys, or a key and the run, are written out in
`validate` and skip a key whose own rule failed.  Some hold beyond their
key's scope, where the run would otherwise ignore a request it cannot
meet: in every sf run the cavity must be lossless but in 2D spectra, and
`omega_coupling` > 0, since a pes-scan builds its dimers with it too;
`disorder.width` and `disorder.n_realizations` steer only tc and htc runs,
and `temperature.temperature_k` only htc runs, but an sf run refuses any
disorder or temperature and a tc run any temperature.  Any other key a run
never reads is tolerated whatever its value, since one config file can be
switched between experiments by its `[experiment] kind` alone, and is left
out of the echo.  A [model] key that steers no run of its model kind is a
violation.

Validation is total: every violation is collected with its key path
(section.key) before reporting, but a config that names no run reports
only its section, key and kind violations, since every rule depends on the
run.  Parse problems (malformed INI, non-numeric values) and constraint
violations (out-of-range, unknown keys, unsupported combinations) are
distinct error types so the CLI can exit with different codes.

A `RunConfig` holds the only copy of the resolved values, `sections`, with
every schema key.  Its attributes read it; `options` and `resolved_text`
keep only the keys in scope, so the `validate` output and every run
manifest name every key that determined the outputs.  A pes-scan run, for
one, echoes no [run] key and none of `lam_ci`, `omega_coupling`,
`n_photons`, `eps_sn`, `eps_ttn`, `eta_s`, `eta_t` and `cavity_kappa`,
which leave its cuts at Q_c = 0 unchanged; a tc absorption run, a pole sum,
echoes neither `t_max_fs`, `sample_dt_fs` nor `gamma_prime`.

Every config has a [model] section; an oracle-compare config is checked as
htc or sf dynamics, with `fock_cutoff` for its exact Fock twin, one cutoff
for every mode.  Its run writes that twin as `exact_<file>` beside each file
the dynamics run would write, and `oracle_compare.json`, the variational
run's deviation from it and its disagreement with the twin one quantum up.

The shipped `run.multiplicity = 1` (one coherent configuration, M = 1) is
the cheapest variational run, not a converged one.  For sf dynamics it
cannot show fission: the S1 -> TT transfer sits on a symmetry fixed point,
so P_TT stays exactly 0.  Even a weak one-photon pump (`coupling_omega =
0.05`, `n_photons = 1`) puts P_S1 0.058 off the exact result within 5 fs,
against 0.0022 at M = 6, because one configuration misses the photon-number
spread of the Rabi exchange.  M = 1 sf runs are therefore good for smoke
tests and timings, and for the uncoupled limit (`coupling_omega = 0`,
`lam_ci = 0`), where one configuration is exact.  To pick M for a
result, run the config with `[experiment] kind = oracle-compare` (when its
Fock space fits) and raise M until the variational deviation is below the
effect reported.  Its `exact_` files hold the Fock twin at `fock_cutoff`
whatever M.  The cutoff disagreement it reports shows convergence between
two cutoffs but does not bound the twin's error: with `coupling_omega = 0`,
`lam_ci = 0.10` and `fock_cutoff = 21` it reads 0.0119 for p_tt, while the
twin's P_TT(300 fs), 0.200, lies 0.04 below the value at cutoffs 35-50.

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
import math
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


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _float_list(text: str):
    return tuple(_float(tok) for tok in text.replace(",", " ").split())


#: the (experiment, model kind) pairs that run
RUNS = frozenset({
    ("dynamics", "tc"), ("dynamics", "htc"), ("dynamics", "sf"),
    ("absorption", "tc"), ("absorption", "htc"), ("pes-scan", "sf"),
    ("spectra2d", "sf"), ("oracle-compare", "htc"), ("oracle-compare", "sf"),
})


def _runs(experiments=EXPERIMENT_KINDS, models=MODEL_KINDS) -> frozenset:
    """The runs of one of `experiments` on one of `models`."""
    return frozenset(run for run in RUNS
                     if run[0] in experiments and run[1] in models)


_TC_HTC = _runs(models=("tc", "htc"))
_HTC = _runs(models=("htc",))
_SF = _runs(models=("sf",))
_PES = _runs(("pes-scan",))
_SPECTRA = _runs(("spectra2d",))  # the upper manifold and its loss
_WINDOWED = _runs(("absorption", "spectra2d"))
# htc absorption samples its autocorrelation on the dynamics time axis
_TIMED = _runs(("dynamics", "oracle-compare")) | {("absorption", "htc")}
_PROPAGATED = _runs(models=("htc", "sf")) - _PES  # variational propagation
_PUMPED = _runs(("dynamics", "oracle-compare"), ("sf",))  # coherent pump
_DAMPED = _WINDOWED & _PROPAGATED  # a propagated response under gamma_prime


def _at_least(bound):
    """The rule value >= `bound`: a (test, message) pair."""
    return (lambda value: value >= bound), f"must be >= {bound}"


_POSITIVE = ((lambda value: value > 0), "must be > 0")
_NON_NEGATIVE = _at_least(0)

# (type converter, default, scope, rule) per key; a None default means
# required.  The scope is the set of runs the key steers, and the rule, a
# (test, message) pair or None, is the key's own bound, checked only there.
_SCHEMA = {
    "experiment": {
        "kind": (str, "dynamics", RUNS, None),
        "gamma_prime": (_float, 0.01, _DAMPED, _POSITIVE),
        "omega_min": (_float, 0.7, _WINDOWED, None),
        "omega_max": (_float, 1.3, _WINDOWED, None),
        "omega_points": (int, 601, _WINDOWED, _at_least(2)),
        "q_min": (_float, -0.4, _PES, None),
        "q_max": (_float, 0.6, _PES, None),
        "q_points": (int, 251, _PES, _at_least(2)),
        "fock_cutoff": (int, 6, _runs(("pes-scan", "oracle-compare")),
                        _at_least(1)),
        "manifold_max": (int, 2, _PES, _NON_NEGATIVE),
        "grid_points": (int, 64, _SPECTRA, _at_least(2)),
        "grid_dt_fs": (_float, 0.5, _SPECTRA, _POSITIVE),
        "waiting_times_fs": (_float_list, (0.0, 16.0, 32.0, 48.0), _SPECTRA,
                             None),
    },
    "model": {
        "kind": (str, None, RUNS, None),
        "n_qubits": (int, 1, _TC_HTC, _at_least(1)),
        "omega_c": (_float, 1.0, _TC_HTC, _POSITIVE),
        "omega_qubit": (_float, 1.0, _TC_HTC, _POSITIVE),
        "omega_r": (_float, 0.1, _TC_HTC, _NON_NEGATIVE),
        "kappa": (_float, 0.0, _TC_HTC, _NON_NEGATIVE),
        "gamma": (_float, 0.0, _TC_HTC, _NON_NEGATIVE),
        "lam": (_float, 0.0, _HTC, _NON_NEGATIVE),
        "phonon_base": (_float, 0.124, _HTC, _POSITIVE),
        "phonon_bandwidth": (_float, 0.0, _HTC, (
            (lambda value: 0 <= value < 1),
            "must lie in [0, 1) so every mode frequency stays positive")),
        "n_dimers": (int, 1, _SF, ((lambda value: value in (1, 2)),
                                   "unsupported (only 1 or 2 dimers)")),
        "coupling_omega": (_float, 0.2, _SF, _NON_NEGATIVE),
        "rwa": (_bool, False, _SF, None),
        "n_photons": (_float, 6.0, _PUMPED, (
            (lambda value: 0 <= value <= 25),
            "coherent pump mean must lie in [0, 25]")),
        "cavity_omega_c": (_float, 2.256, _SF, _POSITIVE),
        "cavity_kappa": (_float, 0.0, _SPECTRA, _NON_NEGATIVE),
        "eps_s1": (_float, 2.23, _SF, None),
        "eps_tt": (_float, 2.28, _SF, None),
        "eps_sn": (_float, 4.33, _SPECTRA, None),
        "eps_ttn": (_float, 4.68, _SPECTRA, None),
        "omega_tuning": (_float, 0.186, _SF, _POSITIVE),
        # every sf run builds its dimers with this mode: checked in validate
        "omega_coupling": (_float, 0.0154, _SF - _PES, None),
        "lam_ci": (_float, LAMBDA_CI_CALIBRATED, _SF - _PES, None),
        "eta_s": (_float, 1.0, _SPECTRA, _NON_NEGATIVE),
        "eta_t": (_float, 1.0, _SPECTRA, _NON_NEGATIVE),
    },
    "run": {
        "t_max_fs": (_float, 300.0, _TIMED, _POSITIVE),
        "sample_dt_fs": (_float, 1.0, _TIMED, _POSITIVE),
        "multiplicity": (int, 1, _PROPAGATED, _at_least(1)),
        # start noise, drawn at M > 1
        "seed": (int, 0, _PROPAGATED, _NON_NEGATIVE),
        "rel_tol": (_float, 1e-6, _PROPAGATED, _POSITIVE),
        "abs_tol": (_float, 1e-8, _PROPAGATED, _POSITIVE),
    },
    "disorder": {
        "width": (_float_list, (0.0,), _TC_HTC, (
            (lambda widths: len(widths) >= 1 and min(widths) >= 0),
            "need one or more widths >= 0")),
        "n_realizations": (int, 1, _TC_HTC, _at_least(1)),
        # one word of the disorder draws' Philox key
        "seed": (int, 0, _TC_HTC, ((lambda value: 0 <= value < 2 ** 64),
                                   "must lie in [0, 2**64 - 1]")),
    },
    "temperature": {
        "temperature_k": (_float, 0.0, _HTC, _NON_NEGATIVE),
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
        """Section `name` without the keys that do not steer this run."""
        run = (self.experiment, self.model_kind)
        return {key: value for key, value in self.sections[name].items()
                if run in _SCHEMA[name][key][2]}

    @property
    def options(self) -> dict:
        """The [experiment] keys that steer this experiment."""
        return self.steering("experiment")

    @property
    def temperature_k(self) -> float:
        return self.sections["temperature"]["temperature_k"]

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
        for key, (_, default, _, _) in schema.items():
            if key in out:
                continue
            if default is None:
                violations.append(f"{name}.{key}: required")
            else:
                out[key] = default
    return resolved, violations


def _check(cond: bool, violations: list, message: str) -> None:
    if not cond:
        violations.append(message)


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


def validate(text: str) -> RunConfig:
    """Parse + validate config text; raises ConfigParseError or
    ConfigConstraintError (with the full violation list)."""
    sections = _read_sections(text)
    raw, violations = _convert(sections)

    exp = raw["experiment"]
    model = raw["model"]
    run = raw["run"]
    dis = raw["disorder"]
    temp_k = raw["temperature"]["temperature_k"]

    experiment, kind = exp["kind"], model.get("kind")
    pair = (experiment, kind)
    if experiment not in EXPERIMENT_KINDS:
        violations.append(f"experiment.kind: {experiment!r} not one of "
                          f"{EXPERIMENT_KINDS}")
    if kind not in (None, *MODEL_KINDS):
        violations.append(f"model.kind: {kind!r} not one of {MODEL_KINDS}")
    elif kind and experiment in EXPERIMENT_KINDS and pair not in RUNS:
        models = [m for m in MODEL_KINDS if (experiment, m) in RUNS]
        violations.append(f"experiment.kind: {experiment} requires the "
                          f"{' or '.join(models)} model")
    if pair not in RUNS:  # every rule below depends on the run
        raise ConfigConstraintError(violations)

    for key in sorted(sections.get("model", {}).keys() & _SCHEMA["model"]):
        if all(m != kind for _, m in _SCHEMA["model"][key][2]):
            violations.append(f"model.{key}: not a {kind} model key")

    failed = set()  # the keys whose own rule failed
    for name, schema in _SCHEMA.items():
        for key, (_, _, scope, rule) in schema.items():
            if rule and pair in scope and not rule[0](raw[name][key]):
                violations.append(f"{name}.{key}: {rule[1]}")
                failed.add(f"{name}.{key}")

    def ok(*keys) -> bool:
        """Whether every key passed its own rule."""
        return failed.isdisjoint(keys)

    _check_tags(dis["width"], violations, "disorder.width")
    dt = run["sample_dt_fs"]
    if pair in _TIMED and ok("run.t_max_fs", "run.sample_dt_fs"):
        # the runner samples round(t_max_fs / dt) + 1 times
        _check(_on_grid(run["t_max_fs"], dt), violations,
               f"run.t_max_fs: must be a whole number of {dt} fs samples "
               "(run.sample_dt_fs)")
    # the step (and its key) of the samples behind an omega window
    window_step = None
    if pair == ("absorption", "htc") and ok("run.sample_dt_fs"):
        window_step = (dt, "run.sample_dt_fs")

    if kind == "htc":
        # htc carries one phonon mode per emitter on a periodic register
        _check(model["n_qubits"] >= 2, violations,
               "model.n_qubits: must be >= 2 for the htc model")
        if temp_k > 0 and ok("model.phonon_base", "model.phonon_bandwidth"):
            # the thermofield rule (thermofield.mixing_angles) on the lowest
            # mode, k = 0, which every register of n_qubits >= 2 holds
            omega_min = model["phonon_base"] * (1.0 - model["phonon_bandwidth"])
            x = 1.0 / (KB_EV_PER_K * temp_k) * omega_min / 2.0
            _check(x >= CLASSICAL_LIMIT_FLOOR, violations,
                   f"temperature.temperature_k: beta*omega/2 = {x:.3e} of the "
                   f"lowest phonon mode is below {CLASSICAL_LIMIT_FLOOR:.0e} "
                   "(classical limit); reduce the temperature")
    if kind == "sf":
        _check(model["eps_s1"] < model["eps_tt"], violations,
               "model.eps_s1: must be below eps_tt (uphill fission)")
        # a pes-scan's cuts at Q_c = 0 do not depend on the coupling mode,
        # but its dimers are built with it all the same
        _check(model["omega_coupling"] > 0, violations,
               "model.omega_coupling: must be > 0")
        if experiment != "spectra2d":
            _check(model["cavity_kappa"] == 0, violations,
                   f"model.cavity_kappa: sf {experiment} runs need a "
                   "lossless cavity")
        _check(dis["width"] == (0.0,) and dis["n_realizations"] == 1,
               violations, "disorder: unsupported for the sf model")
        _check(temp_k == 0, violations,
               "temperature.temperature_k: finite temperature is "
               "unsupported for the sf model")
    if kind == "tc":
        _check(temp_k == 0, violations,
               "temperature.temperature_k: the tc model has no phonon "
               "bath to thermalize")
        if experiment == "absorption" and ok("model.kappa", "model.gamma"):
            _check(model["kappa"] + model["gamma"] > 0, violations,
                   "model.kappa: the pole lineshape needs a linewidth — set "
                   "kappa or gamma > 0 for a tc absorption run")

    if experiment == "spectra2d":
        _check({"omega_min", "omega_max"} <= set(sections["experiment"]),
               violations, "experiment.omega_min, experiment.omega_max: "
               "spectra2d needs its window set; the default 0.7-1.3 eV "
               "holds no transition of the fission dimer")
        if "rwa" in sections.get("model", {}):
            _check(model["rwa"], violations,
                   "model.rwa: spectra2d works in excitation-number "
                   "blocks and requires the rotating-wave coupling")
        else:
            model["rwa"] = True
        tws = exp["waiting_times_fs"]
        _check_tags(tws, violations, "experiment.waiting_times_fs")
        if ok("experiment.grid_dt_fs"):
            dt = exp["grid_dt_fs"]
            _check(len(tws) >= 1 and all(
                w >= 0 and _on_grid(w, dt) for w in tws),
                violations, "experiment.waiting_times_fs: need one or more "
                f"waiting times >= 0 on the {dt} fs grid")
            window_step = (dt, "experiment.grid_dt_fs")
    if window_step is not None:
        nyquist = nyquist_ev(window_step[0])
        _check(max(abs(exp["omega_min"]), abs(exp["omega_max"]))
               <= nyquist + 1e-12, violations,
               f"experiment.omega_max: the omega window exceeds the Nyquist "
               f"limit {nyquist:.3f} eV of the {window_step[0]} fs steps "
               f"({window_step[1]})")
    if pair in _WINDOWED:
        _check(exp["omega_max"] > exp["omega_min"], violations,
               "experiment.omega_max: must exceed omega_min")
    if experiment == "pes-scan":
        _check(exp["q_max"] > exp["q_min"], violations,
               "experiment.q_max: must exceed q_min")
        if ok("experiment.fock_cutoff", "experiment.manifold_max"):
            _check(exp["fock_cutoff"] >= exp["manifold_max"] + 4, violations,
                   "experiment.fock_cutoff: must be >= manifold_max + 4 = "
                   f"{exp['manifold_max'] + 4}")

    if violations:
        raise ConfigConstraintError(violations)

    return RunConfig(raw)


def load(path: str) -> RunConfig:
    """Read and validate the config file at `path`; text that is not UTF-8
    is a ConfigParseError, an unreadable path an OSError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text ({exc})") from exc
    return validate(text)


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
