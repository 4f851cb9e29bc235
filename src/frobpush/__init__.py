"""frobpush: exact decompositions of Frobenius pushforwards on a catalog of
varieties, trace-kernel positivity verdicts, and F-signature arithmetic.

All computations are exact (big integers and rationals); every closed form is
cross-checked against an independent brute-force oracle in the test and
verification suites.
"""

from .combinat import (
    PrimePower,
    binom,
    bounded_power_coefficients,
    composition_count,
    composition_row,
    composition_sums,
    composition_table,
    eulerian,
    floor_pieces,
    polynomial_range_sum,
    range_sum_weights,
)
from .picard import (
    ConeP,
    Decomposition,
    Hirzebruch,
    Line,
    LinearBlowup,
    PicClass,
    Product,
    ProjSpace,
    Quadric,
    RationalNormalCone,
    SegreCone,
    SegreConeBlowup,
    Spinor,
    VeroneseCone,
    VeroneseConeBlowup,
    change_basis,
)
from .catalog import (
    pushforward_hirzebruch,
    pushforward_linear_blowup,
    pushforward_product,
    pushforward_projective_space,
    pushforward_segre_cone,
    pushforward_veronese_cone,
    quadric_pushforward_support,
)
from .families import (
    CONE_KINDS,
    FAMILIES,
    family_of,
    structure_pushforward,
)
from .restriction import restrict
from .positivity import (
    QuadricKernelReport,
    Verdict,
    VerdictStatus,
    Witness,
    ample_verdict,
    kernel_restriction_verdict,
    kernel_verdict,
    quadric_kernel_verdict,
    trace_kernel,
)
from .localalg import (
    cone_pushforward,
    f_signature,
    f_signature_convergent,
    splitting_number,
)

__version__ = "0.1.0"
