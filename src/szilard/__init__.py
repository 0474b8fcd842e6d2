"""Quantum Szilard engine simulator: Stirling-like cycles over trapped
particles, from single-particle Morse wells to many-boson power-law traps."""

__version__ = "0.1.0"

from .constants import ATOMIC_MASS, EV, HBAR, K_B, PLANCK
from .errors import (ConfigError, ConvergenceViolationError,
                     EnsembleMismatchError, InvalidPotentialError,
                     NoBoundStatesError, OutputError, PoleError,
                     SolverFailureError, SpectrumRangeError, SzilardError,
                     TruncationError)
from .potentials import (Barrier, Harmonic, Morse, PowerLaw, Spectrum,
                         level_energy, morse_bound_count, omega_prefactor)
from .barrier import BarrierStrength, EvenLevelSolution, even_levels, \
    gamma_ratio, odd_level
from .ensembles import (BathPair, ChemicalPotentials, MuMode, Stage,
                        TruncationPolicy, canonical_stage_properties,
                        chemical_potential, chemical_potentials,
                        internal_energy, log_relative_partition,
                        occupancy_total)
from .cycle import CycleResult, Ensemble, Regime, carnot_bound, run_cycle
from .sweeps import (Axis, RunManifest, SweepOutcome, SweepSpec,
                     ValidationReport, load_config, parse_quantity, preset,
                     preset_names, run_sweep, spec_from_config, validate)
