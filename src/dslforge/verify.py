"""Machine checks of the structural claims on computed bases: bracket
closure, the derivation-coproduct identity, the adjoint embedding, Lie
axioms, and group laws.  Every check returns a replayable report; randomized
checks take an explicit seed and record it."""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from .algebra import q_sharp_pairing_tables
from .cache import get_basis
from .lie import (
    ad_x1,
    bracket1,
    bracket_racinet,
    conjugate_x1,
    derive_d,
    ihara1_product,
    ihara_product,
    tm1_inverse,
)
from .linalg import int_matrix, kernel_basis
from .lyndon import lyndon_primitive_basis
from .series import XSeries, _accumulate
from .spaces import (
    ADDMR_FAD_PARITY,
    DMR,
    FAD_PARITY,
    membership_check,
)
from .words import all_xwords, all_ywords, harmonic_words, word_pairs


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    parameters: dict
    passed: bool
    witnesses: list
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "params": self.parameters,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "runtime_ms": self.runtime_ms,
        }


def _report(name: str, params: dict, witnesses: list, t0: float) -> VerificationReport:
    return VerificationReport(
        check_name=name,
        parameters=params,
        passed=not witnesses,
        witnesses=witnesses,
        runtime_ms=(perf_counter() - t0) * 1000.0,
    )


def _nonzero_bases(space, weights, use_cache: bool) -> dict:
    """{k: basis} of the space at each of the weights where it is nonzero."""
    bases = {k: get_basis(space, k, use_cache=use_cache) for k in weights}
    return {k: basis for k, basis in bases.items() if basis.dimension}


def verify_bracket_closure(
    k1: int, k2: int, use_cache: bool = True
) -> VerificationReport:
    """Brackets of basis vectors of the parity-refined intersection land back
    in it one weight lower than the sum; a zero-dimensional target forces the
    bracket to vanish."""
    t0 = perf_counter()
    kt = k1 + k2 - 1
    bases = {k: get_basis(ADDMR_FAD_PARITY, k, use_cache=use_cache)
             for k in dict.fromkeys((k1, k2, kt))}
    basis1, basis2, target = bases[k1], bases[k2], bases[kt]
    witnesses = []
    for i, a in enumerate(basis1.vectors):
        for j, b in enumerate(basis2.vectors):
            br = bracket1(a.with_bound(kt), b.with_bound(kt))
            if target.dimension == 0:
                if not br.is_zero():
                    witnesses.append(
                        {"i": i, "j": j, "reason": "nonzero bracket into zero space"}
                    )
                continue
            rep = membership_check(ADDMR_FAD_PARITY, br)
            if not rep.passed:
                witnesses.append({"i": i, "j": j, "violations": rep.violations})
    return _report(
        "bracket-closure",
        {
            "k1": k1,
            "k2": k2,
            "target_weight": kt,
            "dims": [basis1.dimension, basis2.dimension, target.dimension],
        },
        witnesses,
        t0,
    )


def verify_lemma_essential(a: XSeries, b: XSeries) -> VerificationReport:
    """Pairing form of the derivation-coproduct identity.

    For every T-layer and nonempty Y-word pair (u, v):
      <q_sharp(d_a(b)) | u*v> = <q_sharp(a)|u><q_sharp(b)|v>
                              + <q_sharp(b)|u><q_sharp(a)|v>,
    with coefficients in Q[T] multiplied as polynomials (layers convolved).
    """
    t0 = perf_counter()
    d = derive_d(a, b)
    n = min(d.weight_bound, a.weight_bound + b.weight_bound - 1)
    lhs_table = q_sharp_pairing_tables(d)
    a_table = q_sharp_pairing_tables(a)
    b_table = q_sharp_pairing_tables(b)
    witnesses = []
    for m in range(2, n):
        for u, v in word_pairs(m, all_ywords):
            # both sides as polynomials in T: {T-exponent: coefficient}
            lhs = _accumulate(
                (t, mult * c)
                for w, mult in harmonic_words(u, v).items()
                for t, c in lhs_table.get(w, {}).items()
            )
            rhs = _accumulate(
                (t1 + t2, c1 * c2)
                for first, second in ((a_table, b_table), (b_table, a_table))
                for t1, c1 in first.get(u, {}).items()
                for t2, c2 in second.get(v, {}).items()
            )
            if lhs != rhs:
                witnesses.append(
                    {
                        "u": list(u),
                        "v": list(v),
                        "lhs": {str(t): str(c) for t, c in sorted(lhs.items())},
                        "rhs": {str(t): str(c) for t, c in sorted(rhs.items())},
                    }
                )
    return _report(
        "lemma-essential",
        {"weights": [a.min_weight(), b.min_weight()], "pair_weight_max": n - 1},
        witnesses,
        t0,
    )


def verify_lemma_essential_all(
    total_weight_max: int = 11, use_cache: bool = True
) -> VerificationReport:
    """Run the pairing identity over all basis pairs of the parity-refined
    intersection with total weight up to the bound."""
    t0 = perf_counter()
    witnesses = []
    pairs = 0
    bases = _nonzero_bases(ADDMR_FAD_PARITY, range(4, total_weight_max - 3), use_cache)
    for ka, basis_a in bases.items():
        for kb, basis_b in bases.items():
            if ka + kb > total_weight_max:
                continue
            for i, a in enumerate(basis_a.vectors):
                for j, b in enumerate(basis_b.vectors):
                    pairs += 1
                    bound = ka + kb - 1
                    rep = verify_lemma_essential(a.with_bound(bound), b.with_bound(bound))
                    if not rep.passed:
                        witnesses.append(
                            {"ka": ka, "kb": kb, "i": i, "j": j, "inner": rep.witnesses}
                        )
    return _report(
        "lemma-essential-all",
        {"total_weight_max": total_weight_max, "pairs": pairs},
        witnesses,
        t0,
    )


def verify_ad_embedding(k: int, use_cache: bool = True) -> VerificationReport:
    """Bracketing with x1 sends each weight-k basis vector of the tangent
    double shuffle space into the parity-refined intersection one weight up;
    the images stay linearly independent.  Also records whether the two
    dimensions agree.  A pass with dims_equal certifies ad(x1)(dmr_k) =
    addmr-fad-parity_{k+1} (membership gives inclusion, independence the
    dimension, and equal dimensions equality): the Lie-algebra form of the
    paper's refined AdDMR_0 = DMR_0 question at this weight."""
    t0 = perf_counter()
    source = get_basis(DMR, k, use_cache=use_cache)
    target = get_basis(ADDMR_FAD_PARITY, k + 1, use_cache=use_cache)
    witnesses = []
    images = []
    for i, psi in enumerate(source.vectors):
        image = ad_x1(psi.with_bound(k + 1))
        images.append(image)
        rep = membership_check(ADDMR_FAD_PARITY, image)
        if not rep.passed:
            witnesses.append({"i": i, "violations": rep.violations})
    if images:
        words = sorted(set().union(*(img.terms for img in images)))
        rows = int_matrix([[img.terms.get(w, 0) for img in images] for w in words], len(images))
        rank = len(images) - len(kernel_basis(rows, len(images)))
        if rank != len(images):
            witnesses.append({"reason": "images linearly dependent", "rank": rank})
    return _report(
        "ad-embedding",
        {
            "k": k,
            "dim_source": source.dimension,
            "dim_target": target.dimension,
            "dims_equal": source.dimension == target.dimension,
        },
        witnesses,
        t0,
    )


def random_tm1_element(rng: random.Random, weight: int, bound: int) -> XSeries:
    """Homogeneous series with small random coefficients, zero on the x1
    letter and on the pure x0-power."""
    items = []
    for w in all_xwords(weight):
        if w == "0" * weight:
            continue
        if weight == 1 and w == "1":
            continue
        c = rng.randint(-3, 3)
        if c:
            items.append((w, c))
    return XSeries(items, bound)


def _random_combination(rng: random.Random, vectors, bound: int) -> XSeries:
    """Sum of the vectors with coefficients drawn from -2..2, one per vector
    in order, truncated at bound."""
    coeffs = [rng.randint(-2, 2) for _ in vectors]
    return XSeries(
        ((w, c * x) for v, c in zip(vectors, coeffs) if c for w, x in v.terms.items()),
        bound,
    )


def verify_lie_axioms(
    sample_count: int = 50,
    k_max: int = 6,
    seed: int = 0,
    use_cache: bool = True,
) -> VerificationReport:
    """Antisymmetry and the Jacobi identity for the derivation bracket on
    seeded random elements, plus closure of the parity-refined corner
    subspace under the bracket."""
    if k_max < 2:
        raise ValueError(f"lie-axioms needs k_max >= 2, got {k_max}")
    t0 = perf_counter()
    rng = random.Random(seed)
    witnesses = []

    for idx in range(sample_count):
        ka = rng.randint(2, k_max)
        kb = rng.randint(2, k_max)
        bound = ka + kb - 1
        a = random_tm1_element(rng, ka, bound)
        b = random_tm1_element(rng, kb, bound)
        if not (bracket1(a, b) + bracket1(b, a)).is_zero():
            witnesses.append({"sample": idx, "reason": "antisymmetry"})
        if not bracket1(a, a).is_zero():
            witnesses.append({"sample": idx, "reason": "self-bracket"})

    jacobi_count = max(sample_count // 2, 1)
    for idx in range(jacobi_count):
        ks = [rng.randint(2, min(k_max, 4)) for _ in range(3)]
        bound = sum(ks) - 2
        a, b, c = (random_tm1_element(rng, k, bound) for k in ks)
        total = (
            bracket1(a, bracket1(b, c))
            + bracket1(b, bracket1(c, a))
            + bracket1(c, bracket1(a, b))
        )
        if not total.is_zero():
            witnesses.append({"sample": idx, "reason": "jacobi"})

    # closure of the corner-and-parity subspace under the bracket
    bases = _nonzero_bases(FAD_PARITY, range(3, k_max + 1), use_cache)
    for ka, basis_a in bases.items():
        for kb, basis_b in bases.items():
            bound = ka + kb - 1
            a = _random_combination(rng, basis_a.vectors, bound)
            b = _random_combination(rng, basis_b.vectors, bound)
            if a.is_zero() or b.is_zero():
                continue
            br = bracket1(a, b)
            if br.is_zero():
                continue
            rep = membership_check(FAD_PARITY, br)
            if not rep.passed:
                witnesses.append(
                    {"ka": ka, "kb": kb, "reason": "fad-parity closure",
                     "violations": rep.violations}
                )
    return _report(
        "lie-axioms",
        {"samples": sample_count, "k_max": k_max, "seed": seed},
        witnesses,
        t0,
    )


def verify_racinet_homomorphism(
    pair_count: int = 20, k_max: int = 8, seed: int = 0
) -> VerificationReport:
    """Bracketing with x1 intertwines the two brackets:
    ad_x1({a, b}) = {ad_x1(a), ad_x1(b)}_1 on random primitive pairs."""
    if k_max < 4:
        raise ValueError(f"racinet-homomorphism needs k_max >= 4, got {k_max}")
    t0 = perf_counter()
    rng = random.Random(seed)
    witnesses = []

    def random_primitive(weight: int, bound: int) -> XSeries:
        return _random_combination(
            rng, [e.expansion for e in lyndon_primitive_basis(weight)], bound
        )

    for idx in range(pair_count):
        ka = rng.randint(2, max(2, k_max // 2))
        kb = rng.randint(2, max(2, k_max - ka))
        bound = ka + kb + 1
        a = random_primitive(ka, bound)
        b = random_primitive(kb, bound)
        lhs = ad_x1(bracket_racinet(a, b))
        rhs = bracket1(ad_x1(a), ad_x1(b))
        if lhs != rhs:
            witnesses.append({"sample": idx, "ka": ka, "kb": kb})
    return _report(
        "racinet-homomorphism",
        {"pairs": pair_count, "k_max": k_max, "seed": seed},
        witnesses,
        t0,
    )


def random_unit_series(rng: random.Random, bound: int) -> XSeries:
    """Random series with constant term 1 and small coefficients."""
    items = [("", 1)]
    for k in range(1, bound + 1):
        for w in all_xwords(k):
            c = rng.randint(-1, 1)
            if c and rng.random() < 0.5:
                items.append((w, c))
    return XSeries(items, bound)


def random_group_shaped(rng: random.Random, bound: int) -> XSeries:
    """Random series with x1-coefficient 1 and vanishing x0-powers."""
    items = [("1", 1)]
    for k in range(2, bound + 1):
        for w in all_xwords(k):
            if w == "0" * k:
                continue
            c = rng.randint(-1, 1)
            if c and rng.random() < 0.5:
                items.append((w, c))
    return XSeries(items, bound)


def verify_group_laws(n: int = 6, seed: int = 0) -> VerificationReport:
    """Unit laws, associativity, the two-sided substitution inverse, and the
    conjugation homomorphism between the two twisted products, on random
    truncated series."""
    if n > 8:
        raise ValueError("truncation capped at 8")
    t0 = perf_counter()
    rng = random.Random(seed)
    witnesses = []
    unit = XSeries.unit(n)
    x1 = XSeries.word("1", 1, n)

    for idx in range(6):
        a = random_unit_series(rng, n)
        b = random_unit_series(rng, n)
        c = random_unit_series(rng, n)
        if ihara_product(unit, a) != a or ihara_product(a, unit) != a:
            witnesses.append({"sample": idx, "reason": "twisted unit law"})
        lhs = ihara_product(ihara_product(a, b), c)
        rhs = ihara_product(a, ihara_product(b, c))
        if lhs != rhs:
            witnesses.append({"sample": idx, "reason": "twisted associativity"})
        # conjugation homomorphism into the substitution product
        conj_ab = conjugate_x1(ihara_product(a, b))
        if conj_ab != ihara1_product(conjugate_x1(a), conjugate_x1(b)):
            witnesses.append({"sample": idx, "reason": "conjugation homomorphism"})

    for idx in range(6):
        a = random_group_shaped(rng, n)
        b = random_group_shaped(rng, n)
        c = random_group_shaped(rng, n)
        if ihara1_product(x1, a) != a or ihara1_product(a, x1) != a:
            witnesses.append({"sample": idx, "reason": "substitution unit law"})
        lhs = ihara1_product(ihara1_product(a, b), c)
        rhs = ihara1_product(a, ihara1_product(b, c))
        if lhs != rhs:
            witnesses.append({"sample": idx, "reason": "substitution associativity"})
        inv = tm1_inverse(a)
        if ihara1_product(a, inv) != x1 or ihara1_product(inv, a) != x1:
            witnesses.append({"sample": idx, "reason": "two-sided inverse"})

    return _report("group-laws", {"truncation": n, "seed": seed}, witnesses, t0)
