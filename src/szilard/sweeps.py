"""Parameter sweeps: preset grids, CSV emission, and run manifests.

A sweep is a cartesian grid: discrete lists (particle counts, exponents,
well depths, ...) crossed with at most one continuous axis.  Eleven presets
pre-load published parameter sets; `custom` reads everything from a config
file instead.  Each grid point is evaluated independently, so a worker pool
may process them in any order; rows are always written in grid order and
all floats are formatted to 17 significant digits, which makes the CSV
byte-identical across runs and worker counts.

A failed point (shallow well, series past the term cap, ...) becomes a row
whose numeric cells are empty and whose last column carries the reason; it
never aborts the sweep.  Every CSV is accompanied by one manifest, an INI
file holding the fully resolved parameters.  Feeding that manifest back via
`--config` reproduces the CSV byte for byte.
"""

import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import __version__
from .constants import ATOMIC_MASS, EV, K_B
from .errors import ConfigError, OutputError, SzilardError
from .potentials import Barrier, Harmonic, Morse, PowerLaw, Spectrum
from .barrier import even_levels, odd_level
from .ensembles import (BathPair, MuMode, TruncationPolicy,
                        chemical_potentials, log_relative_partition)
from .cycle import Ensemble, run_cycle

__all__ = ["Axis", "SweepSpec", "RunManifest", "SweepOutcome",
           "ValidationReport", "preset", "preset_names", "run_sweep",
           "validate", "load_config", "spec_from_config"]


@dataclass(frozen=True)
class Axis:
    """One continuous sweep variable, linearly or logarithmically spaced."""

    name: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if not self.start < self.stop:
            raise ConfigError(f"axis {self.name}: start must be below stop")
        if self.points < 2:
            raise ConfigError(f"axis {self.name}: need at least 2 points")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis {self.name}: scale must be linear or log")
        if self.scale == "log" and self.start <= 0.0:
            raise ConfigError(f"axis {self.name}: log scale needs start > 0")

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep: family + grid + fixed parameters."""

    target: str
    family: str
    axes: tuple
    lists: dict
    params: dict
    output: str
    policy: TruncationPolicy = TruncationPolicy()
    workers: int = 1

    def grid(self):
        """Ordered (name, values) pairs: lists first, then axes."""
        named = [(k, tuple(v)) for k, v in self.lists.items()]
        named += [(a.name, tuple(a.values())) for a in self.axes]
        return named


@dataclass(frozen=True)
class SweepOutcome:
    spec: SweepSpec
    columns: tuple
    rows: list
    errors: list          # (point index, message)
    csv_path: str
    manifest_path: str
    wall_clock: float

    @property
    def points(self):
        return len(self.rows)

    @property
    def failed(self):
        return len(self.errors)


@dataclass
class ValidationReport:
    points: int = 0
    predicted_failures: list = field(default_factory=list)   # (index, reason)
    spec_errors: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.spec_errors

    def __str__(self):
        lines = [f"{self.points} grid points"]
        for msg in self.spec_errors:
            lines.append(f"spec error: {msg}")
        frac = len(self.predicted_failures) / self.points if self.points else 0.0
        lines.append(f"expected failures: {len(self.predicted_failures)}"
                     f" ({100.0 * frac:.1f}%)")
        seen = {}
        for _, reason in self.predicted_failures:
            seen[reason] = seen.get(reason, 0) + 1
        for reason, count in seen.items():
            lines.append(f"  {count} x {reason}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# presets

_CAPTION_MASS = 19.11e-11      # kg, shared by the harmonic/power-law figures
_GHZ10 = 1e10                  # rad/s for the "10 GHz" captions


def preset_names():
    return tuple(_PRESETS) + ("custom",)


def preset(target):
    """A fresh SweepSpec for one preset target."""
    try:
        make = _PRESETS[target]
    except KeyError:
        raise ConfigError(f"unknown preset {target!r}; know"
                          f" {', '.join(preset_names())}") from None
    return make()


def _bose_engine_spec(target, nus, counts, ratio_axis, t_hot, t_cold):
    return SweepSpec(
        target=target, family="bose-cycle",
        axes=(ratio_axis,),
        lists={"nu": tuple(nus), "N": tuple(counts)},
        params={"mass": _CAPTION_MASS, "T_hot": t_hot, "T_cold": t_cold,
                "mu_mode": MuMode.SOLVED.value},
        output=f"{target}.csv")


def _morse_frequency_spec(target):
    return SweepSpec(
        target=target, family="morse-cycle",
        axes=(Axis("omega", 1e9, 5e12, 50, "log"),),
        lists={"depth": (2.0 * EV, 4.7 * EV, 8.7 * EV, math.inf),
               "T_hot": (2.0, 4.0, 6.0, 8.0)},
        params={"mass": 1.1 * ATOMIC_MASS, "cold_to_hot": 0.5,
                "literal_denominator": False},
        output=f"{target}.csv")


_PRESETS = {
    "fig2": lambda: SweepSpec(
        target="fig2", family="canonical", axes=(),
        lists={"N": tuple(range(1, 21))},
        params={"mass": _CAPTION_MASS, "omega": 1e11,
                "T_hot": 200.0, "T_cold": 100.0},
        output="fig2.csv"),
    "fig3": lambda: SweepSpec(
        target="fig3", family="canonical",
        axes=(Axis("omega", 1e10, 5e13, 60, "log"),),
        lists={"N": (1, 2, 3)},
        params={"mass": _CAPTION_MASS, "T_hot": 200.0, "T_cold": 100.0},
        output="fig3.csv"),
    "fig4": lambda: SweepSpec(
        target="fig4", family="chemical-potential",
        axes=(Axis("T", 0.05, 2.0, 40),),
        lists={"N": (5, 10, 15, 20, 25, 30)},
        params={"mass": _CAPTION_MASS, "omega": _GHZ10},
        output="fig4.csv"),
    "fig5": lambda: SweepSpec(
        target="fig5", family="partition-ratio",
        axes=(Axis("T", 0.05, 10.0, 40),),
        lists={"N": (10, 20, 30)},
        params={"mass": _CAPTION_MASS, "omega": _GHZ10,
                "mu_mode": MuMode.SOLVED.value},
        output="fig5.csv"),
    "fig6": lambda: SweepSpec(
        target="fig6", family="barrier-levels", axes=(),
        lists={"strength": (0.0, 1.0, 10.0, 100.0, 1e4, math.inf),
               "branch": (0, 1, 2, 3, 4, 5)},
        params={},
        output="fig6.csv"),
    "fig7": lambda: _bose_engine_spec(
        "fig7", nus=(1.6, 2.0), counts=(20,),
        ratio_axis=Axis("scale_ratio", 0.02, 50.0, 50, "log"),
        t_hot=20.0, t_cold=10.0),
    "fig8": lambda: _bose_engine_spec(
        "fig8", nus=(1.6, 2.0, 2.2, 2.6), counts=(10, 20, 30),
        ratio_axis=Axis("scale_ratio", 0.05, 40.0, 40, "log"),
        t_hot=2.0, t_cold=1.0),
    "fig9": lambda: SweepSpec(
        target="fig9", family="morse-cycle",
        axes=(Axis("T_hot", 1.0, 50.0, 50),),
        lists={},
        params={"mass": _CAPTION_MASS, "omega": _GHZ10, "depth": 8.7 * EV,
                "cold_to_hot": 0.5, "literal_denominator": False},
        output="fig9.csv"),
    "fig9-inset": lambda: SweepSpec(
        target="fig9-inset", family="morse-cycle",
        axes=(Axis("anharmonicity", 0.0, 2.0 / 3.0, 41),),
        lists={},
        params={"mass": _CAPTION_MASS, "omega": _GHZ10,
                "T_hot": 8.0, "T_cold": 4.0, "literal_denominator": False},
        output="fig9-inset.csv"),
    "fig10": lambda: _morse_frequency_spec("fig10"),
    "fig11": lambda: _morse_frequency_spec("fig11"),
}


# ---------------------------------------------------------------------------
# point evaluation

_SCHEMAS = {
    "canonical": ("N", "omega", "work", "work_per_kT_cold", "efficiency",
                  "q_hot", "q_cold", "regime", "error"),
    "chemical-potential": ("T", "N", "mu_pre", "mu_post", "mu_pre_solved",
                           "mu_post_solved", "mu_pre_scaled", "mu_post_scaled",
                           "discrepancy_pre", "discrepancy_post", "error"),
    "partition-ratio": ("T", "N", "log_ratio", "ratio", "error"),
    "barrier-levels": ("strength", "branch", "even_level", "odd_level",
                       "residual", "error"),
    "bose-cycle": ("nu", "N", "scale_ratio", "energy_scale", "omega", "work",
                   "work_per_kT_cold", "efficiency", "q_hot", "q_cold",
                   "regime", "mu_pre_hot", "mu_post_hot", "mu_pre_cold",
                   "mu_post_cold", "error"),
    "morse-cycle": ("T_hot", "T_cold", "omega", "depth", "anharmonicity",
                    "work", "work_per_kT_cold", "efficiency", "q_hot",
                    "q_cold", "regime", "error"),
}


def _morse_baths(point, params):
    t_hot = point.get("T_hot", params.get("T_hot"))
    t_cold = params.get("T_cold")
    if t_cold is None:
        t_cold = t_hot * params["cold_to_hot"]
    return BathPair(hot=float(t_hot), cold=float(t_cold))


def _morse_potential(point, params):
    omega = float(point.get("omega", params.get("omega")))
    if "anharmonicity" in point:
        return Morse.from_anharmonicity(params["mass"], omega,
                                        float(point["anharmonicity"]))
    depth = float(point.get("depth", params.get("depth")))
    return Morse(mass=params["mass"], depth=depth, omega=omega)


def _cycle_cells(result, t_cold):
    eff = result.efficiency
    return {
        "work": result.work,
        "work_per_kT_cold": result.work / (K_B * t_cold),
        "efficiency": eff if eff is not None else None,
        "q_hot": result.q_hot,
        "q_cold": result.q_cold,
        "regime": result.regime.value,
    }


def _eval_canonical(point, spec):
    p = spec.params
    omega = float(point.get("omega", p.get("omega")))
    baths = BathPair(hot=p["T_hot"], cold=p["T_cold"])
    trap = Harmonic(mass=p["mass"], omega=omega)
    result = run_cycle(trap, Ensemble.CANONICAL_N, int(point["N"]), baths,
                       spec.policy)
    row = {"N": int(point["N"]), "omega": omega}
    row.update(_cycle_cells(result, baths.cold))
    return row


def _eval_chemical_potential(point, spec):
    p = spec.params
    trap = Harmonic(mass=p["mass"], omega=p["omega"])
    count = int(point["N"])
    temperature = float(point["T"])
    closed = chemical_potentials(trap, count, temperature,
                                 MuMode.CLOSED_FORM, spec.policy)
    solved = chemical_potentials(trap, count, temperature,
                                 MuMode.SOLVED, spec.policy)
    return {
        "T": temperature, "N": count,
        "mu_pre": closed.pre_insertion,
        "mu_post": closed.post_insertion,
        "mu_pre_solved": solved.pre_insertion,
        "mu_post_solved": solved.post_insertion,
        "mu_pre_scaled": closed.pre_insertion * 1e23,
        "mu_post_scaled": closed.post_insertion * 1e23,
        "discrepancy_pre": abs(closed.pre_insertion - solved.pre_insertion),
        "discrepancy_post": abs(closed.post_insertion - solved.post_insertion),
    }


def _eval_partition_ratio(point, spec):
    p = spec.params
    trap = Harmonic(mass=p["mass"], omega=p["omega"])
    count = int(point["N"])
    temperature = float(point["T"])
    mode = MuMode(p["mu_mode"])
    mus = chemical_potentials(trap, count, temperature, mode, spec.policy)
    log_ratio = log_relative_partition(trap, mus, temperature, spec.policy)
    return {"T": temperature, "N": count,
            "log_ratio": log_ratio, "ratio": math.exp(log_ratio)}


def _eval_barrier(point, spec):
    strength = float(point["strength"])
    branch = int(point["branch"])
    solution = even_levels(strength, branch)[branch]
    return {"strength": strength, "branch": branch,
            "even_level": solution.energy,
            "odd_level": odd_level(branch),
            "residual": solution.residual}


def _eval_bose_cycle(point, spec):
    p = spec.params
    baths = BathPair(hot=p["T_hot"], cold=p["T_cold"])
    ratio = float(point["scale_ratio"])
    scale = ratio * K_B * baths.cold
    trap = PowerLaw.from_energy_scale(p["mass"], scale, float(point["nu"]))
    count = int(point["N"])
    mode = MuMode(p["mu_mode"])
    result = run_cycle(trap, Ensemble.GRAND_BOSE, count, baths, spec.policy,
                       mu_mode=mode)
    mus_hot, mus_cold = result.mus
    row = {"nu": float(point["nu"]), "N": count, "scale_ratio": ratio,
           "energy_scale": scale, "omega": trap.omega}
    row.update(_cycle_cells(result, baths.cold))
    row.update({"mu_pre_hot": mus_hot.pre_insertion,
                "mu_post_hot": mus_hot.post_insertion,
                "mu_pre_cold": mus_cold.pre_insertion,
                "mu_post_cold": mus_cold.post_insertion})
    return row


def _eval_morse_cycle(point, spec):
    p = spec.params
    baths = _morse_baths(point, p)
    trap = _morse_potential(point, p)
    result = run_cycle(trap, Ensemble.MORSE_SINGLE, 1, baths, spec.policy,
                       literal_denominator=bool(p.get("literal_denominator")))
    row = {"T_hot": baths.hot, "T_cold": baths.cold, "omega": trap.omega,
           "depth": trap.depth, "anharmonicity": trap.anharmonicity}
    row.update(_cycle_cells(result, baths.cold))
    return row


_EVALUATORS = {
    "canonical": _eval_canonical,
    "chemical-potential": _eval_chemical_potential,
    "partition-ratio": _eval_partition_ratio,
    "barrier-levels": _eval_barrier,
    "bose-cycle": _eval_bose_cycle,
    "morse-cycle": _eval_morse_cycle,
}


def _sanitize(message):
    return re.sub(r"[,\r\n]+", "; ", str(message)).strip()


def _evaluate_point(spec, point):
    """One grid point -> (row dict, error message or None)."""
    evaluate = _EVALUATORS[spec.family]
    try:
        row = evaluate(point, spec)
        row["error"] = ""
        return row, None
    except SzilardError as exc:
        message = _sanitize(f"{type(exc).__name__}: {exc}")
        row = {name: None for name in _SCHEMAS[spec.family]}
        for name, value in point.items():
            if name in row:
                row[name] = value
        row["error"] = message
        return row, message


# ---------------------------------------------------------------------------
# validation

def validate(spec):
    """Dry-run diagnostics: structural errors plus per-point failure forecast.

    Structural problems (bad masses, temperatures, axis ranges) make the
    whole sweep unrunnable; per-point predictions mirror the errors the
    evaluators would
    record (shallow wells, series past the term cap) without running any sums.
    """
    report = ValidationReport()
    if spec.family not in _EVALUATORS:
        report.spec_errors.append(f"unknown family {spec.family!r}")
        return report
    p = spec.params
    for key in ("mass", "T_hot", "T_cold", "omega", "depth", "cold_to_hot"):
        value = p.get(key)
        if value is not None and not value > 0.0:
            report.spec_errors.append(f"parameter {key} must be positive")
    for name, values in spec.lists.items():
        if name == "N" and any(v < 1 for v in values):
            report.spec_errors.append("particle counts must be at least 1")
        if name in ("nu", "depth", "T_hot") and any(v <= 0 for v in values):
            report.spec_errors.append(f"{name} values must be positive")
        if name == "strength" and any(v < 0 for v in values):
            report.spec_errors.append("barrier strengths must be non-negative")
    if "mu_mode" in p:
        try:
            MuMode(p["mu_mode"])
        except ValueError:
            report.spec_errors.append(f"unknown mu_mode {p['mu_mode']!r}")

    grid = spec.grid()
    names = [g[0] for g in grid]
    combos = list(product(*(g[1] for g in grid)))
    report.points = len(combos)
    if report.spec_errors:
        return report

    for index, combo in enumerate(combos):
        point = dict(zip(names, combo))
        if spec.family == "morse-cycle":
            try:
                trap = _morse_potential(point, p)
                Spectrum(trap, Barrier.INSERTED)
            except SzilardError as exc:
                report.predicted_failures.append(
                    (index, _sanitize(f"{type(exc).__name__}: {exc}")))
    return report


# ---------------------------------------------------------------------------
# CSV / manifest plumbing

def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return f"{value:.16e}"


def _write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(name)) for name in columns))
    payload = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(payload)


def _manifest_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


class RunManifest:
    """Everything needed to reproduce one sweep, as flat INI text."""

    def __init__(self, spec, outcome=None, created=None):
        self.spec = spec
        self.outcome = outcome
        self.created = created

    def write(self, path):
        cp = ConfigParser()
        cp.optionxform = str
        cp["run"] = {
            "target": self.spec.target,
            "package": f"szilard {__version__}",
            "output": self.spec.output,
            "workers": str(self.spec.workers),
        }
        if self.created is not None:
            cp["run"]["created_utc"] = self.created
        if self.outcome is not None:
            cp["run"]["points"] = str(self.outcome.points)
            cp["run"]["failed_points"] = str(self.outcome.failed)
            cp["run"]["wall_clock_seconds"] = f"{self.outcome.wall_clock:.3f}"
        cp["policy"] = {
            "rel_tol": _manifest_value(self.spec.policy.rel_tol),
            "max_terms": str(self.spec.policy.max_terms),
        }
        cp["parameters"] = {
            key: _manifest_value(value)
            for key, value in self.spec.params.items()
        }
        for axis in self.spec.axes:
            cp[f"axis.{axis.name}"] = {
                "start": _manifest_value(float(axis.start)),
                "stop": _manifest_value(float(axis.stop)),
                "points": str(axis.points),
                "scale": axis.scale,
            }
        for name, values in self.spec.lists.items():
            cp[f"list.{name}"] = {
                "values": ", ".join(_manifest_value(v) for v in values),
            }
        if self.outcome is not None and self.outcome.errors:
            cp["errors"] = {
                f"point_{index:06d}": _sanitize(message)
                for index, message in self.outcome.errors
            }
        with open(path, "w", encoding="utf-8") as handle:
            cp.write(handle)


# ---------------------------------------------------------------------------
# config files

_QUANTITY = re.compile(r"^\s*([-+0-9.eE]+)\s*(eV|u)?\s*$")


def parse_quantity(text):
    """A float with an optional unit suffix: plain SI, 'eV', or 'u'."""
    t = str(text).strip()
    low = t.lower()
    if low in ("inf", "+inf", "infinity"):
        return math.inf
    match = _QUANTITY.match(t)
    if not match:
        raise ConfigError(f"cannot parse quantity {text!r}")
    try:
        value = float(match.group(1))
    except ValueError:
        raise ConfigError(f"cannot parse quantity {text!r}") from None
    unit = match.group(2)
    if unit == "eV":
        return value * EV
    if unit == "u":
        return value * ATOMIC_MASS
    return value


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


_STRING_PARAMS = {"mu_mode"}
_BOOL_PARAMS = {"literal_denominator"}
_INT_LISTS = {"N", "branch"}


def load_config(path):
    cp = ConfigParser(interpolation=None)
    cp.optionxform = str
    read = cp.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    return cp


def spec_from_config(base, cp):
    """Overlay a parsed config file onto a base SweepSpec (or None for custom).

    The config may redefine parameters, axis windows, value lists, the policy,
    the output path, and the worker count.  With no base, [run] target names
    the preset to start from.
    """
    if base is None:
        if not cp.has_option("run", "target"):
            raise ConfigError("custom sweep needs [run] target in the config")
        target = cp.get("run", "target")
        if target == "custom":
            raise ConfigError("[run] target must name a preset")
        base = preset(target)

    params = dict(base.params)
    if cp.has_section("parameters"):
        for key, raw in cp.items("parameters"):
            if key in _STRING_PARAMS:
                params[key] = raw.strip()
            elif key in _BOOL_PARAMS:
                params[key] = _parse_bool(raw)
            else:
                params[key] = parse_quantity(raw)

    lists = {k: tuple(v) for k, v in base.lists.items()}
    axes = list(base.axes)
    axis_names = [a.name for a in axes]
    for section in cp.sections():
        if section.startswith("list."):
            name = section[len("list."):]
            raw = cp.get(section, "values")
            values = [parse_quantity(v) for v in raw.split(",") if v.strip()]
            if name in _INT_LISTS:
                values = [int(v) for v in values]
            lists[name] = tuple(values)
        elif section.startswith("axis."):
            name = section[len("axis."):]
            if name not in axis_names:
                raise ConfigError(
                    f"axis {name!r} does not exist for target {base.target!r}")
            position = axis_names.index(name)
            old = axes[position]
            axes[position] = Axis(
                name=name,
                start=parse_quantity(cp.get(section, "start",
                                            fallback=str(old.start))),
                stop=parse_quantity(cp.get(section, "stop",
                                           fallback=str(old.stop))),
                points=cp.getint(section, "points", fallback=old.points),
                scale=cp.get(section, "scale", fallback=old.scale))

    policy = base.policy
    if cp.has_section("policy"):
        policy = TruncationPolicy(
            rel_tol=cp.getfloat("policy", "rel_tol",
                                fallback=policy.rel_tol),
            max_terms=cp.getint("policy", "max_terms",
                                fallback=policy.max_terms))

    output = base.output
    workers = base.workers
    if cp.has_section("run"):
        output = cp.get("run", "output", fallback=output)
        workers = cp.getint("run", "workers", fallback=workers)

    return SweepSpec(target=base.target, family=base.family,
                     axes=tuple(axes), lists=lists, params=params,
                     output=output, policy=policy, workers=workers)


# ---------------------------------------------------------------------------
# the sweep runner

def run_sweep(spec, csv_path=None):
    """Evaluate the grid, write CSV + manifest, return the outcome.

    Points are farmed out to spec.workers threads but buffered and written
    strictly in grid order; the output bytes do not depend on the worker
    count.  Per-point failures are recorded in the row and the manifest.
    """
    report = validate(spec)
    if not report.ok:
        raise ConfigError("; ".join(report.spec_errors))

    grid = spec.grid()
    names = [g[0] for g in grid]
    points = [dict(zip(names, combo))
              for combo in product(*(g[1] for g in grid))]

    started = time.perf_counter()
    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            evaluated = list(pool.map(lambda pt: _evaluate_point(spec, pt),
                                      points))
    else:
        evaluated = [_evaluate_point(spec, pt) for pt in points]
    wall = time.perf_counter() - started

    rows = [row for row, _ in evaluated]
    errors = [(index, message) for index, (_, message) in enumerate(evaluated)
              if message is not None]

    path = csv_path if csv_path is not None else spec.output
    manifest_path = f"{path}.manifest"
    columns = _SCHEMAS[spec.family]
    outcome = SweepOutcome(spec=spec, columns=columns, rows=rows,
                           errors=errors, csv_path=str(path),
                           manifest_path=manifest_path, wall_clock=wall)
    try:
        _write_csv(path, columns, rows)
        RunManifest(spec, outcome,
                    created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                    ).write(manifest_path)
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc
    return outcome
