"""Exact operator calculus for affine type-A Schubert calculus.

Core objects: affine permutations in window notation, the affine nilCoxeter
algebra, symmetric functions with the Hall pairing, Bruhat operators
(letters, Dunkl, Murnaghan-Nakayama), label paths in the strong order, and
the ring R_n carrying affine Schubert polynomials.  All arithmetic is exact
rational.
"""

from .afperm import (
    AffinePermutation,
    MarkedCover,
    apply_transposition,
    cyclically_decreasing,
    elements_of_length,
    from_reduced_word,
    grassmannian_factorize,
    grassmannian_lift,
    grassmannian_to_partition,
    identity,
    length,
    marked_covers,
    partition_to_grassmannian,
    rho_element,
    simple,
)
from .bruhat_ops import (
    act_dunkl,
    act_dunkl_power,
    act_letter,
    act_mn,
    act_word,
    word_divided_difference,
)
from .errors import (
    BoundExceededError,
    FlagopsError,
    InternalInconsistencyError,
    ModulusMismatchError,
)
from .nilcox import (
    NilCoxElement,
    basis_element,
    coeff_of_identity,
    h_element,
    h_product,
    multiply,
    noncommutative_k_schur,
    tensor_decompose,
)
from .schubert import (
    RnElement,
    affine_schubert,
    cap_apply,
    divided_difference,
    schubert_basis,
    structure_constants,
    weyl_action,
    xi_class,
)
from .strongorder import (
    RibbonChain,
    RibbonTableau,
    ascent_composition,
    bss_apply,
    k_schur_via_ribbons,
    mn_coefficient,
    ribbon_tableaux,
    ribbons,
)
from .symfunc import (
    SymFunc,
    affine_schur,
    affine_stanley,
    convert_basis,
    hall_inner,
    k_schur,
    project_to_quotient,
)

__version__ = "0.1.0"
