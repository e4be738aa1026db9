"""Phase-space dynamics of prey-predator Hamiltonians.

Classical orbits and closed-form periods for the Lotka-Volterra and
Toda-like models, thermal (canonical) ensembles with quadratic-order
quantum corrections, and exact Gaussian-ensemble Wigner currents with
stagnation/circulation analysis and semiclassical trajectories.
"""

from .classical import (OrbitSpec, TodaClosedForm, Trajectory, hamilton_rhs,
                        integrate_orbit, period, return_to_start,
                        toda_closed_period, toda_species_series)
from .errors import (DomainError, NumericalError, UsageError, ValidityError,
                     WignerFlowError)
from .fieldgrid import FieldGrid, GridSpec, export_table, sample_field, zero_contours
from .gaussian import (GaussianEnsembleParams, StagnationPoint,
                       circulation_number, currents_closed,
                       div_currents_closed, find_stagnation_points,
                       gaussian_w, integrate_quantum_trajectory,
                       liouville_div_w, purity, series_currents,
                       stationarity_div_j, velocity_w, vorticity)
from .model import (HamiltonianKind, PhasePoint, SeparableHamiltonian,
                    SpeciesPair, energy, species_from_phase)
from .specfun import (QuadratureSpec, bessel_k, elliptic_k_complete,
                      elliptic_k_linear_sin, faddeeva_w, hermite_odd,
                      im_erf_offset, im_erf_offset_scaled, integrate_1d,
                      jacobi_sn_cn)
from .thermo import (ThermalEnsembleParams, ThermalObservables, beta_star,
                     currents_td, div_w_td, epsilon_correction, observables,
                     w0, w_st2, z0_closed, z_st_closed)

__version__ = "0.1.0"
