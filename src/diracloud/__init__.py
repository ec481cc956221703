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
from .cloud import (CloudBasis, ShapeEval, ShapeStack, SingularMoment,
                    build_cloud_basis, evaluate_coupled, evaluate_shapes)
from .eigen import (SpectrumReport, classify_spectrum, convergence_rate,
                    solve_generalized)
from .enrichment import EnrichmentBasis, WeightFunction
from .grid import Grid, GridConfig, generate_grid
from .physics import (C_LIGHT, PhysicalSystem, SupercriticalCharge,
                      exact_eigenvalue, potential)

__version__ = "0.1.0"
