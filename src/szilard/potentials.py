"""Single-particle energy spectra for the three trap families.

Three potentials are supported: harmonic, power-law |x|^nu with the coupling
fixed to m*omega^2/2, and a Morse well.  Each exists in two configurations:
barrier absent, and barrier fully inserted at the trap centre.  Insertion is
modelled in the idealized infinite-barrier limit: even levels migrate up onto
the next odd level, so the inserted spectrum at index n equals the absent
spectrum at index 2n and every inserted level is doubly degenerate.

Level indices start at n = 1 throughout.  level_energy gives one trap's
levels; _Shapes gives those of many traps of every family at once, with
the same bits, for the batched sums.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from ._special import gammaln
from .constants import HBAR
from .errors import InvalidPotentialError, NoBoundStatesError, SpectrumRangeError

__all__ = [
    "Barrier",
    "Harmonic",
    "PowerLaw",
    "Morse",
    "Spectrum",
    "omega_prefactor",
    "level_energy",
    "morse_bound_count",
]


class Barrier(Enum):
    ABSENT = "absent"
    INSERTED = "inserted"


def _require(cond, exc, msg):
    if not cond:
        raise exc(msg)


def _require_positive_finite(value, name):
    _require(0.0 < value < math.inf, InvalidPotentialError,
             f"{name} must be positive and finite")


# From x = 1/nu = 12 on, log G is the asymptotic series of log Gamma(y +
# 1/2) - log Gamma(y) at y = x + 1 (DLMF 5.11.8 with a = 1/2 and b = 0):
#     (log y)/2 + sum_m (2^{1-2m} - 2) B_2m / (2m (2m - 1) y^{2m-1}),
# here to m = 6, within 1.3e-16 of it there.  The difference of two
# gammaln values near x log x loses about x ulps, and rounds to 0 past 2^53.
# An exponent whose Gamma(1/nu + 3/2) leaves float range stays refused.
_ASYMPTOTIC_X = 12.0
_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432,
                 691 / 180224)


@lru_cache(maxsize=256)
def _log_gamma_ratio(exponent):
    """log G of the WKB quantisation, G = Gamma(1/nu + 3/2)/Gamma(1 + 1/nu),
    once per exponent: a sweep builds many traps of one exponent."""
    x = 1.0 / exponent
    if x < _ASYMPTOTIC_X:
        ratio = gammaln(x + 1.5) - gammaln(1.0 + x)
    else:
        y = x + 1.0
        t = 1.0 / y
        series = 0.0
        for c in reversed(_RATIO_SERIES):
            series = series * t * t + c
        ratio = (0.5 * math.log(y) + t * series
                 if gammaln(x + 1.5) < math.inf else math.inf)
    _require(math.isfinite(ratio), InvalidPotentialError,
             f"power-law exponent {exponent:g} is too small: the gamma "
             f"ratio of its WKB prefactor is out of floating-point range")
    return ratio


@dataclass(frozen=True)
class Harmonic:
    """Harmonic trap: levels (n + 1/2) * hbar * omega, n >= 1.  `quantum`
    is hbar*omega, computed once when the trap is built."""

    mass: float        # kg
    omega: float       # rad/s
    quantum: float = field(init=False, repr=False, compare=False)   # J

    def __post_init__(self):
        _require_positive_finite(self.mass, "mass")
        _require_positive_finite(self.omega, "omega")
        _require_positive_finite(HBAR * self.omega, "level spacing hbar*omega")
        object.__setattr__(self, "quantum", HBAR * self.omega)


@dataclass(frozen=True)
class PowerLaw:
    """Power-law trap |x|^exponent with coupling fixed to mass*omega^2/2.

    Levels follow energy_scale * (n + 1/2)**p with p = 2*exponent/(exponent+2),
    where energy_scale is the WKB prefactor returned by omega_prefactor().
    exponent = 2 reduces exactly to the harmonic trap.
    """

    mass: float        # kg
    omega: float       # rad/s
    exponent: float    # dimensionless, > 0
    energy_scale: float = field(init=False, repr=False, compare=False)   # J

    def __post_init__(self):
        _require_positive_finite(self.mass, "mass")
        _require_positive_finite(self.omega, "omega")
        _require_positive_finite(self.exponent, "power-law exponent")
        # log-space: the bracket spans many orders of magnitude at small omega
        try:
            alpha = 0.5 * self.mass * self.omega**2
            log_bracket = (math.log(HBAR)
                           + 0.5 * math.log(math.pi / (2.0 * self.mass * alpha))
                           + _log_gamma_ratio(self.exponent))
            scale = math.exp(math.log(alpha) + self.level_power * log_bracket)
        except (ArithmeticError, ValueError):
            raise InvalidPotentialError(
                "power-law energy scale is out of floating-point range") from None
        object.__setattr__(self, "energy_scale", scale)

    @property
    def level_power(self):
        """Exponent p = 2*nu/(nu + 2) applied to (n + 1/2)."""
        return 2.0 * self.exponent / (self.exponent + 2.0)

    @classmethod
    def from_energy_scale(cls, mass, scale, exponent):
        """Build the trap whose omega_prefactor equals `scale` (J).

        Inverts scale = (m/2) * (hbar*G*sqrt(pi)/m)**p * omega**(2-p) for
        omega, with G the gamma-function ratio of the WKB quantisation.
        Sweeps over the energy scale use this so the axis is the level
        prefactor itself rather than the trap frequency.
        """
        _require_positive_finite(mass, "mass")
        _require_positive_finite(scale, "energy scale")
        _require_positive_finite(exponent, "power-law exponent")
        p = 2.0 * exponent / (exponent + 2.0)
        # in Python floats, so that p rounding to 2 or omega leaving float
        # range raises here rather than warning in numpy; 2 scale/mass
        # underflowing to 0 is a ValueError of math.log
        log_base = (math.log(HBAR) + _log_gamma_ratio(exponent)
                    + 0.5 * math.log(math.pi) - math.log(mass))
        try:
            omega = math.exp((math.log(2.0 * scale / mass) - p * log_base)
                             / (2.0 - p))
        except (ArithmeticError, ValueError):
            raise InvalidPotentialError(
                "power-law trap frequency is out of floating-point range"
                ) from None
        return cls(mass=mass, omega=omega, exponent=exponent)


@dataclass(frozen=True)
class Morse:
    """Morse well of finite depth.

    Levels: quantum*(n+1/2) - quantum*anharmonicity*(n+1/2)^2 for n up to the
    bound-state count, where quantum = hbar*omega and anharmonicity =
    quantum/(4*depth).  Construct from either the angular frequency or the
    range parameter `steepness` (omega = steepness*sqrt(2*depth/mass)).
    depth = inf is the harmonic limit (anharmonicity 0, unbounded ladder).
    `position` is the well minimum; it never enters any energy.
    `quantum`, `anharmonicity` and `bound_count`, floor(2*depth/quantum -
    1), are computed once when the well is built; `bound_count` is None at
    infinite depth, and below 1 for a well that holds no level
    (morse_bound_count raises then).
    """

    mass: float            # kg
    depth: float           # J, may be math.inf
    omega: float = None    # rad/s
    steepness: float = None   # 1/m
    position: float = 0.0     # m
    quantum: float = field(init=False, repr=False, compare=False)   # J
    anharmonicity: float = field(init=False, repr=False, compare=False)
    bound_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive_finite(self.mass, "mass")
        _require(self.depth > 0, InvalidPotentialError, "depth must be positive")
        if (self.omega is None) == (self.steepness is None):
            raise InvalidPotentialError(
                "give exactly one of omega or steepness")
        if self.omega is None:
            _require_positive_finite(self.steepness, "steepness")
            _require(math.isfinite(self.depth), InvalidPotentialError,
                     "steepness form needs a finite depth")
            object.__setattr__(
                self, "omega",
                self.steepness * math.sqrt(2.0 * self.depth / self.mass))
        else:
            _require_positive_finite(self.omega, "omega")
            if math.isfinite(self.depth):
                object.__setattr__(
                    self, "steepness",
                    self.omega * math.sqrt(self.mass / (2.0 * self.depth)))
            else:
                object.__setattr__(self, "steepness", 0.0)
        # the level-spacing scale hbar*omega, and quantum/(4*depth)
        object.__setattr__(self, "quantum", HBAR * self.omega)
        object.__setattr__(self, "anharmonicity",
                           self.quantum / (4.0 * self.depth))
        try:
            count = (math.floor(2.0 * self.depth / self.quantum - 1.0)
                     if math.isfinite(self.depth) else None)
        except ArithmeticError:
            raise InvalidPotentialError(
                "Morse bound count is out of floating-point range") from None
        object.__setattr__(self, "bound_count", count)

    @classmethod
    def from_anharmonicity(cls, mass, omega, anharmonicity):
        """Build the well with a prescribed anharmonicity at fixed omega."""
        _require(anharmonicity >= 0, InvalidPotentialError,
                 "anharmonicity must be non-negative")
        if anharmonicity == 0.0:
            return cls(mass=mass, depth=math.inf, omega=omega)
        depth = HBAR * omega / (4.0 * anharmonicity)
        return cls(mass=mass, depth=depth, omega=omega)


def omega_prefactor(potential):
    """Level-energy prefactor in J.

    Power-law: the WKB scale
        alpha * [hbar*sqrt(pi/(2*m*alpha)) * G(nu)]**p,
    alpha = m*omega^2/2, G = Gamma(1/nu + 3/2)/Gamma(1 + 1/nu),
    p = 2*nu/(nu+2).  Exactly hbar*omega at nu = 2.  Computed once, when the
    trap is built, and kept as PowerLaw.energy_scale.
    Harmonic: hbar*omega.
    """
    if isinstance(potential, Harmonic):
        return potential.quantum
    if not isinstance(potential, PowerLaw):
        raise InvalidPotentialError(
            "omega_prefactor applies to harmonic and power-law traps")
    return potential.energy_scale


def morse_bound_count(potential):
    """Number of bound levels, floor(2*depth/quantum - 1).

    None for the infinite-depth harmonic limit.  Raises when the well is too
    shallow to hold even one level.
    """
    if not isinstance(potential, Morse):
        raise InvalidPotentialError("bound count applies to Morse wells only")
    count = potential.bound_count
    if count is not None and count < 1:
        raise NoBoundStatesError(
            f"2*depth/quantum = {2.0 * potential.depth / potential.quantum:.6g}"
            " leaves no bound level")
    return count


def _absent_energy(potential, n):
    """Energy of one trap at absolute index n (an int, in Python floats, or
    an array), barrier absent: the reference that level_energy evaluates
    and that _Shapes.levels, many traps at once, has the bits of."""
    s = n + 0.5 if isinstance(n, int) else np.asarray(n, dtype=float) + 0.5
    if isinstance(potential, PowerLaw):
        # numpy's power for every n: the C library's pow, which s**p takes
        # for an int or 0-d n, may round a fractional power differently, and
        # a level keeps the bits of its place in a ladder
        e = np.power(s, potential.level_power)
        e = omega_prefactor(potential) * (
            e if isinstance(e, np.ndarray) else float(e))
    elif isinstance(potential, Harmonic):
        e = potential.quantum * s
    elif isinstance(potential, Morse):
        q, chi = potential.quantum, potential.anharmonicity
        # a level past float range is -inf, silently: such a well has no
        # bound level, which its callers' checks name
        with np.errstate(over="ignore"):
            e = q * s - q * chi * s * s
    else:
        raise InvalidPotentialError(f"unknown potential {potential!r}")
    return e if isinstance(e, np.ndarray) else float(e)


def level_energy(potential, n, barrier=Barrier.ABSENT):
    """Energy of level n (J).  n may be a positive int or an int array.

    With the barrier inserted the level at index n is the absent-barrier level
    at index 2n (doubly degenerate).  Morse indices are checked against the
    bound-state count; a post-barrier request needs 2n within it.  An int n
    takes the same formula and checks in Python floats, without building
    arrays.
    """
    scalar = isinstance(n, int)
    arr = n if scalar else np.asarray(n)
    empty = not scalar and arr.size == 0
    if not empty and (arr if scalar else arr.min()) < 1:
        raise SpectrumRangeError("level indices start at 1")
    idx = 2 * arr if barrier is Barrier.INSERTED else arr
    if isinstance(potential, Morse):
        cap = morse_bound_count(potential)
        top = idx if scalar or empty else idx.max()
        if cap is not None and not empty and top > cap:
            raise SpectrumRangeError(
                f"index {int(top)} beyond the {cap} bound Morse levels"
                + (" (post-barrier)" if barrier is Barrier.INSERTED else ""))
        e = _absent_energy(potential, idx)
        if not empty and (e if scalar else np.min(e)) <= 0.0:
            raise SpectrumRangeError("non-positive Morse level energy")
        return e
    return _absent_energy(potential, idx)


class _Shapes:
    """Ladder shapes of many traps, one array entry each: level n is scale
    s^power - scale chi s^2 at s = n + 1/2, one of the terms zero (scale is
    hbar omega or a power law's energy scale, chi a Morse anharmonicity,
    power a power law's level power), cut at a Morse well's bound count
    cap (inf if unbounded).  wells, powers, bounded: whether any chi != 0,
    any power != 1, any Morse well."""

    __slots__ = ("scale", "chi", "power", "cap", "morse", "wells", "powers",
                 "bounded")

    def __init__(self, scale, chi, power, cap, morse):
        self.scale, self.chi, self.power, self.cap, self.morse = (
            scale, chi, power, cap, morse)
        self.wells = bool(np.count_nonzero(chi))
        self.powers = bool(np.count_nonzero(power != 1.0))
        self.bounded = bool(np.count_nonzero(morse))

    @classmethod
    def of(cls, traps):
        table = np.array([_shape(trap) for trap in traps],
                         dtype=float).reshape(-1, 5).T
        return cls(*table[:4], table[4] != 0.0)

    def take(self, rows):
        return _Shapes(self.scale[rows], self.chi[rows], self.power[rows],
                       self.cap[rows], self.morse[rows])

    def levels(self, n, counts=None):
        """The barrier-free levels at indices n (an array) of counts[i]
        indices of trap i in turn (one each without counts), as one array
        expression.  Its one np.power call per distinct level power takes
        the power as a Python float, as level_energy does (numpy takes a
        square root for a scalar power of 1/2, pow for an array of them),
        so every level has the bits of its trap's level_energy call.  A
        level past float range is inf, or -inf in a Morse well, silently."""
        scale, chi, power = (v if counts is None else np.repeat(v, counts)
                             for v in (self.scale, self.chi, self.power))
        s = np.asarray(n, dtype=float) + 0.5
        e = s.copy()
        with np.errstate(over="ignore"):
            for p in set(self.power.tolist()) - {1.0}:
                at = power == p
                e[at] = np.power(s[at], p)
            e *= scale
            e -= scale * chi * s * s
        return e

    def ladders(self, first, top):
        """Levels first[i]..top[i] (int arrays, top >= first) of each trap
        i end to end, where each run starts, and whether level_energy
        refuses the run: a Morse index past the bound count or a level not
        positive."""
        counts = top - first + 1
        starts = np.cumsum(counts) - counts
        e = self.levels(np.arange(counts.sum()) + np.repeat(first - starts,
                                                            counts), counts)
        low = np.minimum.reduceat(e, starts) if len(e) else e
        return e, starts, self.morse & ((top > self.cap) | ~(low > 0.0))


def _shape(trap):
    if isinstance(trap, Morse):
        cap = trap.bound_count
        return (trap.quantum, trap.anharmonicity, 1.0,
                math.inf if cap is None else cap, 1.0)
    if isinstance(trap, PowerLaw):
        return trap.energy_scale, 0.0, trap.level_power, math.inf, 0.0
    if isinstance(trap, Harmonic):
        return trap.quantum, 0.0, 1.0, math.inf, 0.0
    raise InvalidPotentialError(f"unknown potential {trap!r}")


@dataclass(frozen=True)
class Spectrum:
    """One potential in one barrier configuration, enumerable as levels.

    Degeneracy is 1 with the barrier absent and 2 with it inserted, for every
    level.  For a finite Morse well, creating the inserted spectrum with fewer
    than two bound levels raises: the post-barrier ladder would be empty.
    """

    potential: object
    barrier: Barrier = Barrier.ABSENT

    def __post_init__(self):
        if isinstance(self.potential, Morse):
            cap = morse_bound_count(self.potential)   # raises if < 1
            if (self.barrier is Barrier.INSERTED
                    and cap is not None and cap < 2):
                raise SpectrumRangeError(
                    "post-barrier spectrum empty: a single bound level"
                    " cannot be split")

    @property
    def degeneracy(self):
        return 2 if self.barrier is Barrier.INSERTED else 1

    @property
    def cutoff(self):
        """Largest valid index, or None when the ladder is unbounded."""
        if isinstance(self.potential, Morse):
            cap = morse_bound_count(self.potential)
            if cap is not None:
                return cap // 2 if self.barrier is Barrier.INSERTED else cap
        return None

    def energy(self, n):
        return level_energy(self.potential, n, self.barrier)

    def ground_energy(self):
        return self.energy(1)

    def energies(self, count):
        """Energies for n = 1..count as an array."""
        cap = self.cutoff
        if cap is not None:
            count = min(count, cap)
        return self.energy(np.arange(1, count + 1))

    def levels(self, count=None):
        """Iterate (n, energy, degeneracy) for n = 1..count.

        count may be omitted only for bounded (Morse) spectra.
        """
        cap = self.cutoff
        if count is None:
            if cap is None:
                raise SpectrumRangeError(
                    "unbounded spectrum needs an explicit level count")
            count = cap
        e = self.energies(count)
        g = self.degeneracy
        for i, en in enumerate(e, start=1):
            yield i, float(en), g
