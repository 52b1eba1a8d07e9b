"""multiflow: diffusion, dimensional flow, and random walkers on multiscale spacetimes.

The package evaluates measure weights and geometric coordinate profiles,
closed-form dispersion laws ell^2(sigma) for weighted-, ordinary-, and
q-Laplacian diffusion, spectral/Hausdorff/walk dimension flows, heat-kernel
traces and their normalizations, and Monte Carlo walkers whose fitted scaling
exponents verify the closed forms.  A CLI (``multiflow``) drives parameter
sweeps and CSV emission.
"""

from .dispersion import DiffusionSpec, dispersion, dispersion_quadrature
from .errors import (
    BoxError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ExponentDomainError,
    GridError,
    MultiflowError,
    PoleError,
    SingularPointError,
)
from .grid import geometric_grid, uniform_grid
from .kernel import (
    HeatKernelCurve,
    ds_from_kernel,
    gaussian_pdf,
    heat_kernel_curve,
    ordinary_normalization,
    pdf,
    return_probability,
)
from .measure import (
    FractionalCharges,
    GeometryScales,
    MeasureProfile,
    fractional_weight,
    geometric_profile,
    hausdorff_dimension,
    multiscale_weight,
)
from .spectral import (
    LegacyAnsatzWarning,
    SpectralFlow,
    fixed_point_ds,
    flow_curve,
    walk_dimension,
)
from .specfun import gamma_fn, kummer_phi
from .walker import (
    IncrementReport,
    MsdFit,
    WalkerEnsemble,
    fit_scaling_exponent,
    fit_scaling_exponent_batched,
    increment_diagnostics,
    msd,
    simulate,
)

__version__ = "0.1.0"
