"""Spectra of random matrices with finite-range correlated entries.

Three independent routes to the same limiting eigenvalue distribution —
combinatorial tree sums, a color-equation fixed point, and Monte Carlo
sampling — plus exact resultant algebra certifying that the Stieltjes
transform is algebraic for rank-one kernels.
"""

__version__ = "0.1.0"

from .kernel import (Filter, Kernel, IntervalPartition, compass_filter,
                     constant_kernel, kernel_from_filter, validate_kernel,
                     read_color_document, as_kernel)
from .combinat import (WignerPartition, enumerate_wigner_partitions,
                       tree_integral, moments_by_enumeration)
from .moments import theoretical_moments
from .colorsolve import (ColorSolution, SpectralGrid, stieltjes_path,
                         density_profile, solver_moments)
from .algebra import (BivariatePolynomial, resultant, discriminant,
                      real_roots, verify_curve, rank_one_eliminate)
from .matrixlab import (SampleConfig, ESD, EsdSummary,
                        sample_filtered_wigner, sample_colored_gaussian,
                        eigenvalues_symmetric, esd_statistics)

__all__ = [
    "__version__",
    "Filter", "Kernel", "IntervalPartition", "compass_filter",
    "constant_kernel", "kernel_from_filter", "validate_kernel",
    "read_color_document", "as_kernel",
    "WignerPartition", "enumerate_wigner_partitions", "tree_integral",
    "moments_by_enumeration",
    "theoretical_moments",
    "ColorSolution", "SpectralGrid", "stieltjes_path", "density_profile",
    "solver_moments",
    "BivariatePolynomial", "resultant", "discriminant", "real_roots",
    "verify_curve", "rank_one_eliminate",
    "SampleConfig", "ESD", "EsdSummary", "sample_filtered_wigner",
    "sample_colored_gaussian", "eigenvalues_symmetric", "esd_statistics",
]
