"""Exact-arithmetic Yang-Baxter representations and extremal characters of
wreath products with the infinite symmetric group.

Everything is verified by finite, bit-exact linear algebra over cyclotomic
fields: R-matrix laws, couple laws, character identities.
"""

from .cyclo import CycloScalar, Rational, cyclotomic_polynomial, zeta
from .matrix import ExactMatrix, SparseOperator, TensorIndex, amplify, flip_operator, kron
from .perms import FinitePermutation
from .rmatrix import (
    RMatrix,
    ThomaParams,
    boxplus,
    char_cycle,
    extract_thoma,
    merge_thoma,
    normal_form_from_thoma,
    verify_rmatrix,
    yb_rep_perm,
)
from .groups import ConjClass, FiniteGroup, Irrep, catalog_irreps, load_group, verify_irrep
from .wreath import (
    ConjInvariant,
    StandardDecomposition,
    WreathElement,
    conjugacy_invariant,
    cycle_product_class,
    standard_decomposition,
)
from .couple import (
    YangBaxterCouple,
    certify_couple,
    character,
    gram_psd_check,
    rep_element,
    verify_extremality,
)
from .hirai import (
    HiraiParams,
    YBAdmissibility,
    closed_form_character,
    is_yb_admissible,
    sign_character,
    thoma_restriction,
    validate_params,
)
from .construct import (
    BlockLayout,
    block_rmatrix,
    build_couple,
    build_layout,
    end_to_end_check,
)
from .rng import Lcg64

__version__ = "0.1.0"
