"""Exact computations in universal affine vertex algebras.

Root systems and bracket realizations with every structure constant an
exact rational, PBW graded components of the vacuum module at any level,
the explicit singular vectors that generate the interesting maximal
ideals, collapsing-level data for minimal W-algebras, and the classified
module families of the locally finite categories.

Everything is pure and immutable after construction; concurrent reads are
safe and identical inputs produce identical outputs.
"""

from .rootdata import (
    RootSystem,
    UnsupportedAlgebraError,
    build_root_system,
    canonical_name,
    casimir_eigenvalue,
    fundamental_weight,
    minimal_grading_data,
    parse_algebra,
)
from .liealg import (
    LieRealization,
    MinimalGrading,
    build_realization,
    dynkin_flip,
    minimal_grading,
    restricted_dual_coxeter,
)
from .pbw import (
    CapExceededError,
    StateVector,
    apply,
    apply_string,
    graded_basis,
    is_singular,
    proportional,
    singular_kernel,
    vacuum,
)
from .vectors import (
    build_v_n,
    build_vE7,
    build_w1_B,
    build_w1_D,
    build_w3_D4,
    build_w_n,
    enumerate_involutions,
    involution_sign,
    resolve_signs,
    theta_image,
)
from .collapsing import (
    CollapsingRow,
    NotCollapsingError,
    collapsed_level,
    is_collapsing,
    p_of_k,
    table1_audit,
    table5_audit,
)
from .conformal import (
    CriticalLevelError,
    KLSpectrum,
    NotClassifiedError,
    collapse_ell_roots,
    kl_spectrum,
    sugawara_weight,
    w_lowest_weight,
)

__version__ = "0.1.0"
