"""Thermal pair entanglement of n spins with uniform anisotropic couplings.

Exact block-diagonal thermodynamics, a dense small-n oracle, mean-field +
RPA closed forms, large-n entanglement asymptotics, and the static-path
approximation, all over the same parameter type.
"""

from .params import ModelParams
from .errors import (BreakdownError, DivergenceError, InvalidStateError,
                     NumericalError, SymmetryViolationError)
from .spin_algebra import sector_spins
from .exact import (MAX_EXACT_N, ConcurrenceReport, Correlators,
                    LimitTemperatures, PairDensity, SectorSpectrum, Spectra,
                    concurrence, diagonalize, formation_entanglement,
                    level_concurrence, limit_temperatures, log_partition,
                    pair_density, parity_transitions, spectrum_low,
                    thermal_concurrence, thermal_observables)
from .oracle import (MAX_ORACLE_N, full_hamiltonian, oracle_concurrence,
                     oracle_log_partition, oracle_observables, reduced_pair,
                     thermal_density, wootters_concurrence)
from .meanfield import (MeanFieldSolution, PhaseConstants, RpaEnergy,
                        critical_constants, log_partition_mfrpa,
                        mfrpa_observables, rpa_energy_determinant,
                        rpa_energy_general, solve_mean_field)
from .rpa import (DELTA_C, FactorizingField, FullConcurrence, NearCritical,
                  anomalous_tl, asymptotic_concurrence, factorizing_field,
                  full_concurrence, limit_temperature_rpa,
                  near_critical_cminus, separable_window, side_limits_at_bs)
from .cspa import (CspaResult, cspa_concurrence, cspa_log_integrand,
                   cspa_log_partition, cspa_observables, cspa_result)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "BreakdownError", "DivergenceError", "InvalidStateError",
    "NumericalError", "SymmetryViolationError",
    "sector_spins",
    "MAX_EXACT_N", "ConcurrenceReport", "Correlators", "LimitTemperatures",
    "PairDensity", "SectorSpectrum", "Spectra", "concurrence", "diagonalize",
    "formation_entanglement", "level_concurrence", "limit_temperatures",
    "log_partition", "pair_density", "parity_transitions", "spectrum_low",
    "thermal_concurrence", "thermal_observables",
    "MAX_ORACLE_N", "full_hamiltonian", "oracle_concurrence",
    "oracle_log_partition", "oracle_observables", "reduced_pair",
    "thermal_density", "wootters_concurrence",
    "MeanFieldSolution", "PhaseConstants", "RpaEnergy",
    "critical_constants", "log_partition_mfrpa", "mfrpa_observables",
    "rpa_energy_determinant", "rpa_energy_general", "solve_mean_field",
    "DELTA_C", "FactorizingField", "FullConcurrence", "NearCritical",
    "anomalous_tl", "asymptotic_concurrence", "factorizing_field",
    "full_concurrence", "limit_temperature_rpa", "near_critical_cminus",
    "separable_window", "side_limits_at_bs",
    "CspaResult", "cspa_concurrence", "cspa_log_integrand",
    "cspa_log_partition", "cspa_observables", "cspa_result",
    "__version__",
]
