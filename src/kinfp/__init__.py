"""Quantitative regularity toolkit for kinetic Fokker-Planck equations.

Galilean-group geometry of slanted kinetic cylinders, a rough-coefficient
finite-volume solver, the explicit Kolmogorov kernel, and numerical
verification harnesses for the Harnack-type inequalities that hold for
nonnegative (super-)solutions.
"""

from .geometry import (
    Cylinder,
    PhasePoint,
    PopParameters,
    StackedCylinder,
    check_stacking,
    group_inverse,
    group_product,
    pop_parameters,
    scale,
    stack_cylinders,
)
from .fields import (
    BoxCylinder,
    CoefficientField,
    Grid,
    ScalarField,
    VectorField,
    h_minus1_norm,
    make_coefficients,
    norms,
)
from .fpsolver import (
    CFLError,
    NumericalAbort,
    SolverConfig,
    local_bound_check,
    solve,
    weak_residual,
)
from .kolmogorov import (
    CutoffFunction,
    build_cutoff,
    kernel_eval,
    localization_bound,
    solve_cauchy,
    theta0_parameters,
)
from .logtransform import (
    energy_estimate_check,
    g_eval,
    g_prime,
    g_second,
    log_transform,
)
from .harness import (
    ExperimentEnsemble,
    estimate_holder,
    make_kernel_mixture,
    verify_expansion_of_positivity,
    verify_harnack,
    verify_local_poincare,
    verify_minima_measure,
    verify_pop_large_times,
    verify_weak_harnack,
    verify_weak_poincare,
)
from .inkspots import (
    DiscreteSet,
    find_dense_cylinders,
    generate_hypothesis_pair,
    mask_to_rle,
    rle_to_mask,
    verify_inkspots,
)
from .report import VerificationReport

__version__ = "0.1.0"
