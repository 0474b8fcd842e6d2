"""Parameter sweeps: preset grids, CSV emission, and run manifests.

A sweep is a cartesian grid: discrete lists (particle counts, exponents,
well depths, ...) crossed with at most one continuous axis.  Eleven presets
pre-load published parameter sets; `custom` reads everything from a config
file instead.  The five trap families (every one but barrier-levels)
share one point builder, which the run and `validate` both use: each
distinct trap is built once and its points share it.  The points of the
three cycle families (canonical, bose-cycle, morse-cycle) then go through
one cycle evaluation, each with its own particle count and baths, which
gives each trap the result or error it gets alone and hands the sweep
its result cells as columns (cycle._Cycles).  One writer (_write_csv)
takes every family's cells as columns and formats the whole file with
one % template; rows are in grid order and floats in 17 significant
digits, which makes the CSV byte-identical across runs.

A failed point (shallow well, series past the term cap, ...) becomes a row
whose numeric cells are empty and whose last column carries the reason; it
never aborts the sweep.  Every CSV is accompanied by one manifest, an INI
file holding the fully resolved parameters.  Feeding that manifest back via
`--config` reproduces the CSV byte for byte.
"""

import math
import re
import time
from configparser import ConfigParser
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from . import __version__
from .constants import ATOMIC_MASS, EV, K_B
from .errors import (ConfigError, OutputError, SzilardError, TruncationError,
                     value_or_raise)
from .potentials import Harmonic, Morse, PowerLaw
from .barrier import even_levels, odd_level
from .ensembles import (BathPair, MuMode, TruncationPolicy, _Roots,
                        _TrapTable, _bath_ratios, _batches, _beta,
                        _chemical_potentials, _count_error, _failed,
                        _point_columns)
from .cycle import _REGIMES, Ensemble, _run_cycles
# perfbench/test_perfbench.py::test_tracer_restores_every_binding reads it
from .cycle import run_cycle  # noqa: F401

__all__ = ["Axis", "SweepSpec", "RunManifest", "SweepOutcome",
           "ValidationReport", "preset", "preset_names", "run_sweep",
           "validate", "load_config", "spec_from_config", "parse_quantity"]


@dataclass(frozen=True)
class Axis:
    """One continuous sweep variable, linearly or logarithmically spaced."""

    name: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"axis {self.name}: start and stop must be finite")
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
            # towards the largest double the powers geomspace forms
            # overflow; the values it returns are still finite
            with np.errstate(over="ignore"):
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
    workers: int = 1      # recorded in the manifest; evaluation is serial

    def grid(self):
        """Ordered (name, values) pairs: lists first, then axes."""
        named = [(k, tuple(v)) for k, v in self.lists.items()]
        named += [(a.name, tuple(a.values())) for a in self.axes]
        return named


@dataclass(frozen=True)
class SweepOutcome:
    spec: SweepSpec
    columns: tuple
    cells: list = field(repr=False, compare=False)  # as _write_csv takes
    errors: list          # (point index, message)
    csv_path: str
    manifest_path: str
    wall_clock: float
    points: int

    @property
    def failed(self):
        return len(self.errors)

    @cached_property
    def rows(self):
        """Each point's row, a dict of its cells (None where empty)."""
        return [dict(zip(self.columns, row)) for row in zip(*(
            [None if v != v else v for v in c.tolist()]
            if type(c) is np.ndarray else c for c in self.cells))]


@dataclass
class ValidationReport:
    points: int = 0
    predicted_failures: list = field(default_factory=list)   # (index, reason)
    spec_errors: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.spec_errors


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
        raise ConfigError(f"unknown preset {target!r}; the presets are"
                          f" {', '.join(_PRESETS)} (a custom sweep needs"
                          " --config)") from None
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


def _morse_potential(point, params):
    omega = float(point.get("omega", params.get("omega")))
    if "anharmonicity" in point:
        return Morse.from_anharmonicity(params["mass"], omega,
                                        float(point["anharmonicity"]))
    depth = float(point.get("depth", params.get("depth")))
    return Morse(mass=params["mass"], depth=depth, omega=omega)


# How a point of each trap family builds its particle count, bath, trap
# and input cells: a cycle's bath is its BathPair, a harmonic grid's its
# temperature.  `traps[key]` is the trap an earlier point of the sweep
# built from the same inputs; a point that finds none there puts its own
# there as soon as it is built, before any check of the point can fail.

def _baths(traps, hot, cold):
    """The sweep's one BathPair of (hot, cold), kept in traps like a trap;
    one that fails to build is not kept, so each of its points fails."""
    key = BathPair, hot, cold
    traps[key] = traps.get(key) or BathPair(hot=hot, cold=cold)
    return traps[key]


def _harmonic_point(point, p, traps, key):
    trap = traps[key] = traps.get(key) or Harmonic(mass=p["mass"],
                                                   omega=p["omega"])
    value_or_raise(_count_error(point["N"]))
    count, temperature = int(point["N"]), float(point["T"])
    _beta(temperature)      # raises where 1/(k_B T) overflows
    return count, temperature, trap, {"T": temperature, "N": count}


def _canonical_point(point, p, traps, key):
    omega = float(point.get("omega", p.get("omega")))
    baths = _baths(traps, p["T_hot"], p["T_cold"])
    trap = traps[key] = traps.get(key) or Harmonic(mass=p["mass"],
                                                   omega=omega)
    return point["N"], baths, trap, {**point, "omega": omega}


def _bose_point(point, p, traps, key):
    baths = _baths(traps, p["T_hot"], p["T_cold"])
    scale = float(point["scale_ratio"]) * K_B * baths.cold
    trap = traps[key] = traps.get(key) or PowerLaw.from_energy_scale(
        p["mass"], scale, float(point["nu"]))
    return point["N"], baths, trap, {**point, "energy_scale": scale,
                                     "omega": trap.omega}


def _morse_point(point, p, traps, key):
    t_hot = float(point.get("T_hot", p.get("T_hot")))
    t_cold = p["T_cold"] if "T_cold" in p else t_hot * p["cold_to_hot"]
    baths = _baths(traps, t_hot, float(t_cold))
    trap = traps[key] = traps.get(key) or _morse_potential(point, p)
    return 1, baths, trap, {
        "T_hot": baths.hot, "T_cold": baths.cold, "omega": trap.omega,
        "depth": trap.depth, "anharmonicity": trap.anharmonicity}


_BUILDERS = {
    "canonical": _canonical_point,
    "chemical-potential": _harmonic_point,
    "partition-ratio": _harmonic_point,
    "bose-cycle": _bose_point,
    "morse-cycle": _morse_point,
}

_ENSEMBLES = {
    "canonical": Ensemble.CANONICAL_N,
    "bose-cycle": Ensemble.GRAND_BOSE,
    "morse-cycle": Ensemble.MORSE_SINGLE,
}


def _jobs(spec, points):
    """Per point, the (count, bath, trap, cells) of its family's builder, or
    the SzilardError it raises.  Points with equal values of the grid names
    other than a count or a bath share one trap object, built by the first
    of them that builds it, whether or not its own job then fails."""
    build = _BUILDERS[spec.family]
    names = sorted(_POINT_NAMES[spec.family] - {"N", "T", "T_hot"})
    out, traps = [], {}
    for point in points:
        try:
            out.append(build(point, spec.params, traps,
                             tuple(map(point.get, names))))
        except SzilardError as exc:
            out.append(exc)
    return out


def _cycle_values(spec, points):
    """Per point of a cycle family, its input cells or SzilardError, and
    its result cells as columns (see _write_csv), from one cycle
    evaluation of its jobs (see cycle._run_cycles)."""
    p = spec.params
    out = _jobs(spec, points)
    live = np.array([i for i, job in enumerate(out) if not _failed(job)],
                    dtype=np.intp)
    cycles = _run_cycles(
        [out[i][2] for i in live], _ENSEMBLES[spec.family],
        [out[i][0] for i in live], [out[i][1] for i in live], spec.policy,
        MuMode(p.get("mu_mode", MuMode.SOLVED.value)),
        spec.family == "morse-cycle" and bool(p.get("literal_denominator")))
    ok = cycles.errors.live
    code = np.full(len(out), len(_REGIMES))
    code[live[ok]] = cycles.regime[ok]
    columns = {"regime": np.array([r.value for r in _REGIMES] + [None],
                                  dtype=object)[code].tolist()}
    with np.errstate(all="ignore"):     # as for Python floats
        for name, values in zip((
                "work", "work_per_kT_cold", "efficiency", "q_hot", "q_cold",
                "mu_pre_hot", "mu_post_hot", "mu_pre_cold", "mu_post_cold"), (
                cycles.work, cycles.work / (K_B * cycles.temperatures[:, 1]),
                cycles.efficiency, cycles.q_hot, cycles.q_cold,
                *(() if cycles.mu is None else cycles.mu.T))):
            columns[name] = np.full(len(out), math.nan)
            columns[name][live[ok]] = values[ok]
    for j in (~ok).nonzero()[0].tolist():
        out[live[j]] = cycles.errors[j]
    return [value if _failed(value) else value[3] for value in out], columns


def _harmonic_points(spec, points):
    """Per point, its job (see _jobs), or its SzilardError; then the points
    that did not fail, whatever their N and T, in batches bounded at beta
    = 1/(k_B T): their table and (point indices, rows) per batch (see
    ensembles._batches)."""
    out = _jobs(spec, points)
    live = [i for i, job in enumerate(out) if not _failed(job)]
    table, batches = _batches([out[i][2] for i in live],
                              [_beta(out[i][1]) for i in live], spec.policy)
    return out, table, [([live[j] for j in at], [table.rows[j] for j in at])
                        for at in batches]


def _chemical_potential_values(spec, points):
    """Per point, its row values or SzilardError.  The points of each batch
    solve the roots of all their counts and temperatures together, in both
    modes (see ensembles._chemical_potentials), as the columns of the
    batch's roots with the ground levels of its table, each rung once, and
    read their cells from the mu arrays; each point keeps the values it
    gets alone, the closed form's error first."""
    out, table, batches = _harmonic_points(spec, points)
    for run, rows in batches:
        roots = _Roots(table, *_point_columns(
            rows, [out[i][0] for i in run], [(out[i][1],) for i in run]))
        (closed, closed_errors), (solved, solved_errors) = (
            _chemical_potentials(table, roots, mode, spec.policy)
            for mode in (MuMode.CLOSED_FORM, MuMode.SOLVED))
        failed = zip(closed_errors.first(2), solved_errors.first(2))
        mus = np.hstack((closed.reshape(-1, 2), solved.reshape(-1, 2)))
        for i, (error, root_error), (pre, post, root_pre, root_post) in zip(
                run, failed, mus.tolist()):
            out[i] = error or root_error or {
                **out[i][3], "mu_pre": pre, "mu_post": post,
                "mu_pre_solved": root_pre, "mu_post_solved": root_post,
                "mu_pre_scaled": pre * 1e23, "mu_post_scaled": post * 1e23,
                "discrepancy_pre": abs(pre - root_pre),
                "discrepancy_post": abs(post - root_post)}
    return out


def _partition_ratio_values(spec, points):
    """Per point, its row values or SzilardError.  The points of each batch
    run through the grand-canonical cycle's root-and-ratio path
    (ensembles._bath_ratios) together, each trap with its own count at its
    own temperature, each rung once, and read their cells from its array
    of log ratios; each point keeps the values it gets alone."""
    mode = MuMode(spec.params["mu_mode"])
    out, table, batches = _harmonic_points(spec, points)
    for run, rows in batches:
        _, ratios, errors, _ = _bath_ratios(
            table, rows, [out[i][0] for i in run],
            [(out[i][1],) for i in run], mode, spec.policy)
        for i, error, (ratio,) in zip(run, errors, ratios.tolist()):
            out[i] = error or {**out[i][3], "log_ratio": ratio,
                               "ratio": math.exp(ratio)}
    return out


def _eval_barrier(point, spec):
    """The point's one branch, solved alone (k_min = branch).  A branch at
    or past max_terms is still a TruncationError row, with the message it
    had when each solve took every lower branch too: error rows are part of
    the output contract."""
    strength = float(point["strength"])
    branch = int(point["branch"])
    if branch >= spec.policy.max_terms:
        raise TruncationError(
            f"branch {branch:.6g} needs {branch + 1:.6g} even-level solves,"
            f" policy caps at {spec.policy.max_terms}")
    solution = even_levels(strength, branch, k_min=branch)[0]
    return {"strength": strength, "branch": branch,
            "even_level": solution.energy,
            "odd_level": odd_level(branch),
            "residual": solution.residual}


def _barrier_values(spec, points):
    """Per point, its row values or SzilardError, one point at a time."""
    out = []
    for point in points:
        try:
            out.append(_eval_barrier(point, spec))
        except SzilardError as exc:
            out.append(exc)
    return out


# Each other family's per-point row values or SzilardErrors, from all its
# points at once
_VALUES = {
    "chemical-potential": _chemical_potential_values,
    "partition-ratio": _partition_ratio_values,
    "barrier-levels": _barrier_values,
}


def _sanitize(message):
    return re.sub(r"[,\r\n]+", "; ", str(message)).strip()


# ---------------------------------------------------------------------------
# validation

def _spec_errors(spec):
    """Structural problems (bad masses, temperatures, lists) that make the
    whole sweep unrunnable."""
    if spec.family not in _SCHEMAS:
        return [f"unknown family {spec.family!r}"]
    errors = []
    p = spec.params
    for key in ("mass", "T_hot", "T_cold", "omega", "depth", "cold_to_hot"):
        value = p.get(key)
        if value is not None and not value > 0.0:
            errors.append(f"parameter {key} must be positive")
    for name, values in spec.lists.items():
        if name == "N" and any(v < 1 for v in values):
            errors.append("particle counts must be at least 1")
        if name in ("nu", "depth", "T_hot") and any(v <= 0 for v in values):
            errors.append(f"{name} values must be positive")
        if name == "strength" and any(v < 0 for v in values):
            errors.append("barrier strengths must be non-negative")
        if name == "branch" and any(v < 0 for v in values):
            errors.append("barrier branches must be non-negative")
    if "mu_mode" in p:
        try:
            MuMode(p["mu_mode"])
        except ValueError:
            errors.append(f"unknown mu_mode {p['mu_mode']!r}")
    return errors


def _points(spec):
    """The grid's points in order, each a dict of its grid values."""
    grid = spec.grid()
    names = [g[0] for g in grid]
    return [dict(zip(names, combo)) for combo in product(*(g[1] for g in grid))]


def validate(spec):
    """Dry-run diagnostics: structural errors plus per-point failure forecast.

    Structural problems (bad masses, temperatures, axis ranges) make the
    whole sweep unrunnable.  The forecast builds every point of a trap
    family through the run's own point builder (see _jobs), so it predicts
    the errors of its trap and bath builds, of the harmonic grids' count
    and temperature checks, of each particle count the cycle routes
    refuse, and of the ground levels of each distinct trap, absent then
    inserted, as the run looks them up; with the run's indices and
    messages.  It forms no sum: the failures of term caps, roots and stage
    sums are left to the run, and so are all of `barrier-levels`.
    """
    report = ValidationReport(spec_errors=_spec_errors(spec))
    if spec.family not in _SCHEMAS:
        return report
    points = _points(spec)
    report.points = len(points)
    if report.spec_errors or spec.family not in _BUILDERS:
        return report
    jobs = _jobs(spec, points)
    live = [i for i, job in enumerate(jobs) if not _failed(job)]
    table = _TrapTable([jobs[i][2] for i in live])
    rows = dict(zip(live, table.rows))
    for index, job in enumerate(jobs):
        error = job if _failed(job) else _count_error(
            job[0]) or table.ground_error(rows[index])
        if error is not None:
            report.predicted_failures.append(
                (index, _sanitize(f"{type(error).__name__}: {error}")))
    return report


# ---------------------------------------------------------------------------
# CSV / manifest plumbing

_FLOAT = "%.16e"


def _text(value):
    """A CSV cell's text, each "%" doubled for the file's % template: None
    empty, text as it is, ints as ints and anything else as a float in 17
    significant digits (inf, -inf and nan included)."""
    if type(value) is float:
        return _FLOAT % value
    if value is None or isinstance(value, str):
        return (value or "").replace("%", "%%")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT % float(value)


def _write_csv(path, columns, cells):
    """Write the CSV of named columns, cells[c] column c's cells: a float
    array, whose nan cells are empty, or a list of cell values (see _text),
    each distinct object formatted once.  The file is one % template, the
    text of the lists and "%.16e" per float of the arrays, formatted by one
    % over all those floats."""
    texts = {}
    pieces = [list(map((_FLOAT, "").__getitem__, np.isnan(column).tolist()))
              if type(column) is np.ndarray else
              [texts.get(id(value)) or texts.setdefault(id(value),
                                                        _text(value))
               for value in column] for column in cells]
    floats = np.column_stack([c for c in cells if type(c) is np.ndarray]
                             + [np.full(len(cells[-1]), math.nan)])
    template = "\n".join([",".join(columns), *map(",".join, zip(*pieces)), ""])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(template % tuple(floats[~np.isnan(floats)].tolist()))


def _manifest_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(float(value))     # a numpy float's repr names its type
    return str(value)


class RunManifest:
    """Everything needed to reproduce one sweep, as flat INI text."""

    def __init__(self, spec, outcome=None, created=None):
        self.spec = spec
        self.outcome = outcome
        self.created = created

    def write(self, path):
        cp = ConfigParser(interpolation=None)
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


def parse_integer(text):
    """A whole, finite quantity as an int (particle counts, branch indices)."""
    value = parse_quantity(text)
    if not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"{str(text).strip()!r} is not a whole number")
    return int(value)


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


# The grid names the points of each family read.  A list of any other name
# would only repeat rows, with no column to tell the repeats apart.
_POINT_NAMES = {
    "canonical": {"N", "omega"},
    "chemical-potential": {"N", "T"},
    "partition-ratio": {"N", "T"},
    "barrier-levels": {"strength", "branch"},
    "bose-cycle": {"nu", "N", "scale_ratio"},
    "morse-cycle": {"T_hot", "omega", "depth", "anharmonicity"},
}

# The keys each config section takes, a manifest's run record and [errors]
# included, and the [parameters] the points of each family read (each a
# quantity but for the _PARSE ones): a key nothing reads would run the
# defaults as if it were used.
_SECTION_KEYS = {
    "run": {"target", "output", "workers", "package", "created_utc",
            "points", "failed_points", "wall_clock_seconds"},
    "policy": {"rel_tol", "max_terms"},
    "axis.": {"start", "stop", "points", "scale"},
    "list.": {"values"},
    "errors": None,
}
_PARAMETERS = {
    "canonical": {"mass", "omega", "T_hot", "T_cold"},
    "chemical-potential": {"mass", "omega"},
    "partition-ratio": {"mass", "omega", "mu_mode"},
    "barrier-levels": set(),
    "bose-cycle": {"mass", "T_hot", "T_cold", "mu_mode"},
    "morse-cycle": {"mass", "omega", "depth", "T_hot", "T_cold",
                    "cold_to_hot", "literal_denominator"},
}
_PARSE = {"mu_mode": str.strip, "literal_denominator": _parse_bool}
_INT_LISTS = {"N", "branch"}


def load_config(path=None):
    """A parsed config file; with no path, an empty config."""
    cp = ConfigParser(interpolation=None)
    cp.optionxform = str
    if path is not None and not cp.read(path, encoding="utf-8"):
        raise ConfigError(f"config file {path!r} not found")
    return cp


def _check_keys(cp, base):
    """Raise the ConfigError of a section or key `base` does not take."""
    takes = {**_SECTION_KEYS, "parameters": _PARAMETERS[base.family]}
    # ConfigParser folds [DEFAULT]'s keys into every section but lists it in
    # none: no target reads it
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]")
    for section in cp.sections():
        kind = section.partition(".")[0] + "." if "." in section else section
        if kind not in takes:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if takes[kind] is None or key in takes[kind]:
                continue
            if section == "parameters" and key == "literal_denominator":
                raise ConfigError("parameter literal_denominator applies to"
                                  " the Morse targets only")
            raise ConfigError(f"target {base.target!r} takes no key {key!r}"
                              f" in [{section}]")


def spec_from_config(base, cp):
    """Overlay a parsed config file onto a base SweepSpec (or None for custom).

    The config may redefine parameters, axis windows, value lists, the policy,
    the output path, and the worker count.  With no base, [run] target names
    the preset to start from.  A section or key the target never reads is
    an error.  A list may not be empty; a [list.X] naming an axis replaces
    that axis, so [axis.X] and [list.X] together are an error.  A spec's
    manifest read back here gives the spec again.
    """
    if base is None:
        if not cp.has_option("run", "target"):
            raise ConfigError("custom sweep needs [run] target in the config")
        target = cp.get("run", "target")
        if target == "custom":
            raise ConfigError("[run] target must name a preset")
        base = preset(target)
    _check_keys(cp, base)

    params = dict(base.params)
    if cp.has_section("parameters"):
        for key, raw in cp.items("parameters"):
            params[key] = _PARSE.get(key, parse_quantity)(raw)

    lists = {k: tuple(v) for k, v in base.lists.items()}
    axes = {a.name: a for a in base.axes}
    for section in cp.sections():
        if section.startswith("list."):
            name = section[len("list."):]
            if name not in _POINT_NAMES[base.family]:
                raise ConfigError(
                    f"list {name!r} does not apply to target {base.target!r}")
            if cp.has_section(f"axis.{name}"):
                raise ConfigError(f"give [axis.{name}] or [list.{name}],"
                                  " not both")
            raw = cp.get(section, "values", fallback="")
            parse = parse_integer if name in _INT_LISTS else parse_quantity
            lists[name] = tuple(parse(v) for v in raw.split(",") if v.strip())
            if not lists[name]:
                raise ConfigError(f"list {name!r} is empty")
            axes.pop(name, None)
        elif section.startswith("axis."):
            name = section[len("axis."):]
            if name not in axes:
                raise ConfigError(
                    f"axis {name!r} does not exist for target {base.target!r}")
            old = axes[name]
            axes[name] = Axis(
                name=name,
                start=parse_quantity(cp.get(section, "start",
                                            fallback=str(old.start))),
                stop=parse_quantity(cp.get(section, "stop",
                                           fallback=str(old.stop))),
                points=parse_integer(cp.get(section, "points",
                                            fallback=str(old.points))),
                scale=cp.get(section, "scale", fallback=old.scale))

    policy = base.policy
    if cp.has_section("policy"):
        policy = TruncationPolicy(
            rel_tol=parse_quantity(cp.get("policy", "rel_tol",
                                          fallback=repr(policy.rel_tol))),
            max_terms=parse_integer(cp.get("policy", "max_terms",
                                           fallback=str(policy.max_terms))))

    output = base.output
    workers = base.workers
    if cp.has_section("run"):
        output = cp.get("run", "output", fallback=output)
        workers = parse_integer(cp.get("run", "workers",
                                       fallback=str(workers)))
        if workers < 1:
            raise ConfigError("[run] workers must be at least 1")

    return SweepSpec(target=base.target, family=base.family,
                     axes=tuple(axes.values()), lists=lists, params=params,
                     output=output, policy=policy, workers=workers)


# ---------------------------------------------------------------------------
# the sweep runner

def run_sweep(spec, csv_path=None):
    """Evaluate the grid, write CSV + manifest, return the outcome.

    Points are evaluated in this thread, all of a family's at once (see
    _VALUES); spec.workers is recorded in the manifest and changes
    nothing.  Per-point failures are recorded in the row and the
    manifest.
    """
    errors = _spec_errors(spec)
    if errors:
        raise ConfigError("; ".join(errors))
    points = _points(spec)
    started = time.perf_counter()
    values, given = (_cycle_values(spec, points) if spec.family in _ENSEMBLES
                     else (_VALUES[spec.family](spec, points), {}))
    columns = _SCHEMAS[spec.family]
    errors = [(index, _sanitize(f"{type(value).__name__}: {value}"))
              for index, value in enumerate(values) if _failed(value)]
    failed = dict(errors)
    # a failed point's row holds its grid values and the reason
    sources = [points[i] if i in failed else value
               for i, value in enumerate(values)]
    cells = [given[name] if name in given else
             [source.get(name) for source in sources] for name in columns[:-1]
             ] + [[failed.get(i, "") for i in range(len(points))]]
    wall = time.perf_counter() - started

    path = csv_path if csv_path is not None else spec.output
    manifest_path = f"{path}.manifest"
    outcome = SweepOutcome(spec=spec, columns=columns, cells=cells,
                           errors=errors, csv_path=str(path),
                           manifest_path=manifest_path, wall_clock=wall,
                           points=len(points))
    try:
        _write_csv(path, columns, cells)
        RunManifest(spec, outcome,
                    created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                    ).write(manifest_path)
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc
    return outcome
