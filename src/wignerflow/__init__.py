"""Phase-space dynamics of prey-predator Hamiltonians.

Classical orbits and closed-form periods for the Lotka-Volterra and
Toda-like models, thermal (canonical) ensembles with quadratic-order
quantum corrections, and exact Gaussian-ensemble Wigner currents with
stagnation/circulation analysis and semiclassical trajectories.

The public names below are imported from their modules on first access
(PEP 562), so importing the package, or one module of it, loads no other
module.
"""

import importlib

_EXPORTS = {
    "classical": ("OrbitSpec", "TodaClosedForm", "Trajectory",
                  "integrate_orbit", "period", "return_to_start",
                  "toda_closed_period", "toda_orbit", "toda_species_series"),
    "errors": ("DomainError", "NumericalError", "UsageError", "ValidityError",
               "WignerFlowError"),
    "fieldgrid": ("FieldGrid", "GridSpec", "sample_field", "zero_contours"),
    "gaussian": ("GaussianEnsembleParams", "StagnationPoint",
                 "circulation_number", "currents_closed",
                 "div_currents_closed", "find_stagnation_points",
                 "gaussian_w", "integrate_quantum_trajectory",
                 "liouville_div_w", "purity", "series_currents",
                 "stationarity_div_j", "velocity_w", "vorticity"),
    "model": ("HamiltonianKind", "PhasePoint", "SeparableHamiltonian",
              "energy"),
    "specfun": ("QuadratureSpec", "elliptic_k_complete",
                "elliptic_k_linear_sin", "faddeeva_w", "hermite_odd",
                "im_erf_offset", "im_erf_offset_scaled", "integrate_1d",
                "jacobi_sn_cn"),
    "tables": ("export_table",),
    "thermo": ("ThermalEnsembleParams", "ThermalObservables", "beta_star",
               "bessel_k", "currents_td", "div_w_td", "epsilon_correction",
               "observables", "w0", "w_st2", "z0_closed", "z_st_closed"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
