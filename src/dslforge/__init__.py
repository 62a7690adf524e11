"""Exact-arithmetic algebra of double shuffle and adjoint double shuffle
relations: graded series over two alphabets, the linear conditions cutting
out the tangent subspaces, exact kernel computation, and machine checks of
the bracket-closure and embedding statements."""

from .algebra import (
    antipode,
    concat_product,
    group_star,
    harmonic_primitivity_defect,
    harmonic_product,
    is_primitive,
    p_embed,
    q_left,
    q_right,
    q_sharp,
    shuffle_primitivity_defect,
    shuffle_product,
    star_word,
)
from .lie import (
    FadDecomposition,
    ad_x1,
    ad_x1_inverse,
    bracket1,
    bracket_racinet,
    derive_d,
    exp_ihara1,
    fad_decompose,
    ihara1_product,
    ihara_product,
    kappa_substitute,
    tm1_inverse,
)
from .lyndon import LyndonBasisElement, lyndon_primitive_basis, lyndon_words, witt_number
from .moulds import (
    MultiPoly,
    check_corner_identity,
    check_deriv_explicit,
    check_parity_identity,
    ma_mi_extract,
    vimo_extract,
)
from .series import CornerDecomposition, TYSeries, XSeries, YSeries, corner_decompose
from .spaces import (
    ADDMR,
    ADDMR_FAD,
    ADDMR_FAD_PARITY,
    DMR,
    F2GEQ,
    FAD,
    FAD_PARITY,
    VSTRPRTY,
    SpaceId,
    SubspaceBasis,
    dimension_table,
    membership_check,
    rational_kernel,
)
from .verify import (
    VerificationReport,
    verify_ad_embedding,
    verify_bracket_closure,
    verify_group_laws,
    verify_lemma_essential,
    verify_lie_axioms,
    verify_racinet_homomorphism,
)

__version__ = "0.1.0"
