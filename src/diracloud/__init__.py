"""diracloud: radial Dirac spectra with meshfree hp-cloud bases.

The Galerkin discretization of the radial Dirac operator pollutes the
spectrum (values instilled between genuine levels, and positive-kappa
runs picking up the negative-kappa ground level).  The stabilized
Petrov-Galerkin variant here perturbs the test space row-wise with a
mesh-dependent stability parameter and removes both artifacts.
"""
from .assembly import (AssembledSystem, DegenerateTau, QuadratureRule,
                       WeakFormMatrices, assemble_system, assemble_weak_form,
                       build_quadrature, stability_tau, stability_tau_fem)
from .cli import RunConfig, RunResult, run_solve
from .cloud import (CloudBasis, ShapeEval, SingularMoment, build_cloud_basis,
                    evaluate_clouds, evaluate_coupled)
from .eigen import (SpectrumReport, classify_spectrum, convergence_rate,
                    solve_generalized)
from .enrichment import (EnrichmentBasis, WeightFunction, hydrogenic_basis,
                         laguerre, quartic_spline, quartic_spline_deriv,
                         sto_default_basis)
from .grid import Grid, GridConfig, generate_grid
from .physics import (C_LIGHT, ConvectionDiagnostics, PhysicalSystem,
                      SupercriticalCharge, convection_diagnostics,
                      exact_eigenvalue, potential, second_order_coefficients,
                      w_pm)

__version__ = "0.1.0"
