"""The dims path emits integer rows and reproduces the canonical bases.

Each kernel vector sets one free coordinate to 1 and the others to 0 and is
then scaled to a primitive integer vector, so any correct elimination over
the same rows gives the same basis files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from dslforge import spaces
from dslforge.algebra import _harmonic_products, q_right, star_word
from dslforge.cache import get_basis
from dslforge.linalg import kernel_basis
from dslforge.lyndon import bracketing, lyndon_primitive_basis, lyndon_words
from dslforge.series import XSeries
from dslforge.spaces import (
    FAD,
    VSTRPRTY,
    SpaceId,
    _corner00_rows,
    _sharp_harmonic_rows,
    _star_harmonic_rows,
    _word_index,
    compile_constraints,
    compile_on_parent,
    root_basis,
)
from dslforge.words import (
    all_xwords,
    all_ywords,
    harmonic_words,
    leading_blocks,
    lyndon_factors,
    trailing_blocks,
    word_pairs,
)

from reference_systems import compile_lists, full_rows_kernel, list_rows

# sha256 of json.dumps(basis.to_json_dict(), sort_keys=True) for k = 1..8
_PINNED = {
    "dmr": [
        "f5e697802f7faad26bb357f95fe0d4475fda626ef839599fdf2e69c221d9c47e",
        "6418e5390530c4ae3bc1cbafce7bb8072e25716c37b8fc60e2ce3b8625b84a77",
        "efae17713e49366a3cf13c546be25acc784c139759226e2c6d0522bce8fb9445",
        "06229cb07ad825efc343a405d668ae87028150465f18809fd4bf745e293abe22",
        "864d2b829c62404f870e54c9e178334f115a5cf0eede772afa24633c6a748381",
        "4ade5a425728b2622174b30038e0ae4c4665e5705d6c2b09d17897ef2cbdef03",
        "e7739445d28ebff10b6baeb57cbc6eefbda57064b119ba7de0ea2f0dc81523d7",
        "fdf687a3b17620dce3c4948dfc7427a2d0533388a0544e41619760fa810db74a",
    ],
    "addmr": [
        "3d27a49652c50b63e9200c2417bead70ffc2f3dd0e3356fcf814fc6b72b8566d",
        "7a55c5b3aeb509ca7b014cfd438526cca43ade38aab1ce0d84a3e082015e8872",
        "32a5647d3ee46802b2ee205c7c3a5c3edd4cacf2458542491196c97c7a029326",
        "1d67cf158bc73112a53b806249ea212914881603fd76c84d68c6d7531083cd85",
        "6abd5ce41675c6973519d051b968634bf3abd84f791b5f325a1de52d44f416ab",
        "1c26fbe3456e9374205a53daca68933acbcb83a7a184e0e223e78430f2361b2a",
        "964e275306737b413d85c7d33d32ed09e317b032dd94a822af3b972572786968",
        "c925c9f78e2d92f3568bc4163d3d5e69dea852cca197dc9852ab2e54725c08e5",
    ],
    "addmr-fad": [
        "dc2032283a58972abd44f3e7353277ea053cf3fd8735508f1ff788dab92e31c7",
        "ac41ecd3451312b751c845d83965071feb1200bbfe11b0341dda95e45f35b8ae",
        "3f2f24089c272ec7dc057173fc804d5ad0d66df47bdc7c37cc18dbf8e2346a36",
        "2c2dc05e58c61405cda6996e0193a934518d119f05f87faa46bdb8516b9a1e1d",
        "9ee0ebb4510bb816cf87aa0bb77aa3557d36a9fb13b6775ff6cea436fb7c43cb",
        "fe0d15f26f1b21bd6faa1131c422898759d4083e4f4445f11ad577bd68f516e3",
        "4b9f671b93734f452af54d6dfdd88bea720f491d7a8f37f2b8598b1c61deb636",
        "2644757dfcd318f035c95cb8f0c7e8f7dc3d402a831de674969f9a42ee663c29",
    ],
    "addmr-fad-parity": [
        "291851d5d170da663dba55813cd0c51b65aa3c4fd6ea98309a455ca4cb0a50e1",
        "7b21645b682249ac93601a5f4fa69bf598ba24911d5de6c09a5c3721cdc7fbd0",
        "80d079bdbd8f4e2e1c626c9f20439d2426c20af7e182d3d223cf861317d0cb9b",
        "cde19386451b1333a7802b7e872ddf2b19192f3b77a25ae2b82f74cb76c91aee",
        "f3488d5e5c9110b4f1de72368cbae20b4725ee575610e4f27f1bd1410e68fb8a",
        "3e8133819e767b63549f2d168e77cb31297091ff11b1a3bf98175d3db56272cb",
        "69f6dda1df0e9d970f11ba72f1f1e4e1ef36d73bedebd3d48fa33047382a2015",
        "40d50a33aaf4c3dc3ed1c8c1bf31d1f374b94807a7f363fc649457f1bd343fec",
    ],
    "fad": [
        "d3f9f8effc3ea6359077313a27efd69da4ddf172f993535fd2a1eaac65742de3",
        "2e82d785d258f164b24d3d83f3819943e31f520d4fb2bb348862fa9b98d4c7bf",
        "651d5a0f536677f1b8dc8af44650bb71ed3dc9eb56e396e1e33550e8c43678fb",
        "a4403c066e394dc479bc94a2168c4b9ffe4844591a763f6b57b0f1a7a0f6272a",
        "d0c66537ce46f25bbfb83d3804f24e164ac330895f8a51d06bde6b3e427078ad",
        "446c20c9b97c7073305b84873d80954a5863d74875125d812e206d21709dd829",
        "69994cc06692da4101297e73b36e4406321fa82f9625315c8a6edaa632d9860b",
        "5b554ad6f061a3eaebccede994ec7260aed942f772883fd1eedcdee1c5c4b54f",
    ],
    "fad-parity": [
        "0f4e514bf71c8e988428c94dea657df1a7063a39e32ef11f17d955fe3763dec7",
        "a60d33836a82bbdf0b3378f8fbf683c6df909bf0db5eb74af5b46c8473a5cb54",
        "105c081b928c97cf50d4a132a09ead35db9aeae442232e9adc81b120a7ff1d94",
        "c6405c8c0d5fdf9cd9a79cf4dc43269a9f4ddf7b0b6bb326e214a43bd6cd2769",
        "48a1af420eea0f521eded5a5f2c30433dd3ca3b013d29e9a4a56889ea2b5ecfd",
        "5f1db5ec14f119806ed70712041ff5ab862b2d40bdc73b57e312599d4988feb1",
        "63c87ef0e63fa966d188f974148d334d9087cd5b42fc14a0c8a60dbb69e3c35a",
        "d065974efeb0db4ca9b271d1efb82c33b4a2b8c2bbf6367fc3183a713734c327",
    ],
    "vstrprty": [
        "e4796142a52976d9ed529c3b1b8e75d6d7cecae4b3f73bc493f94ffa8bce89b8",
        "58c6b0ae7556ddc4a93889133c4c430fa9bae96c7ba4bb4a71e54d357df6cc39",
        "313102253d6926b922678322de040a81b83a5a7206f050ea8451f979581e7b40",
        "54231bace74e6aa86311f1a45fcbe819dd157ba98e6fd0baa37e7d97292d4689",
        "0f2ec5dc84c4852877a8a03d66d4e1f98a3a9f94b58fcd1c5bd7d445b532c6c5",
        "4d20be144fb3b233af02f9577bdaaddcdbbd747e34de9ce7376d87b95abb59bc",
        "e2adf70af0b82a012c638f33ca2c7a20555a9ce05275ba9cc976fc12bc08205c",
        "2f481e95d45c9b1e7305cbbec3e311bfde2409aaceaa0a6342d54f63224b2cbe",
    ],
}


def _sha256(basis) -> str:
    return hashlib.sha256(json.dumps(basis.to_json_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_bases_match_pinned_hashes(name) -> None:
    """Through get_basis (closed form or parent basis) and, for every space
    that compiles, through the full rows."""
    space = SpaceId.parse(name)
    got = [_sha256(get_basis(space, k, use_cache=False)) for k in range(1, 9)]
    assert got == _PINNED[name]
    if space != VSTRPRTY:
        full = [_sha256(full_rows_kernel(space, k)) for k in range(1, 9)]
        assert full == _PINNED[name]


@pytest.mark.parametrize("name", ["addmr-fad", "addmr-fad-parity"])
def test_parent_route_equals_the_full_rows(name) -> None:
    space = SpaceId.parse(name)
    for k in range(9, 13):
        assert get_basis(space, k) == full_rows_kernel(space, k), k


@pytest.mark.parametrize("name", sorted(set(_PINNED) - {"vstrprty"}) + ["f2geq4"])
def test_compiled_rows_are_plain_ints(name) -> None:
    space = SpaceId.parse(name)
    for k in range(1, 8):
        rows = compile_constraints(space, k)
        assert rows.dtype == np.int64, (name, k)
        assert all(type(c) is int for row in rows.tolist() for c in row), (name, k)


@pytest.mark.parametrize("name", sorted(set(_PINNED) - {"vstrprty"}))
def test_compiled_matrix_equals_the_list_rows(name) -> None:
    """The int64 matrix holds, entry for entry, the rows that the list
    builder makes, on the parent's basis and on the root's."""
    space = SpaceId.parse(name)
    for k in range(1, 11):
        parent = get_basis(space.parent, k)
        rows = compile_on_parent(space, parent)
        assert rows.dtype == np.int64 and rows.shape[1] == parent.dimension, k
        assert rows.tolist() == compile_lists(space.own_tags, parent), k
        full = compile_lists(space.condition_tags(), root_basis(space.root, k))
        assert compile_constraints(space, k).tolist() == full, k


def test_a_row_beyond_int64_takes_the_object_path(monkeypatch) -> None:
    """From the first row with an entry beyond int64 on, the matrix holds
    Python ints, exactly, and its kernel is that of the rows as written."""
    parent = get_basis(FAD.parent, 8)
    plain = compile_on_parent(FAD, parent)
    big = len(plain) // 2

    def one_big_row(index, k):
        rows = _corner00_rows(index, k)
        table, terms = rows[big]
        rows[big] = (table, [(key, 2**70 * mult) for key, mult in terms])
        return rows

    monkeypatch.setitem(spaces._ROW_BUILDERS, "corner00", one_big_row)
    rows = compile_on_parent(FAD, parent)
    want = plain.tolist()
    want[big] = [2**70 * c for c in want[big]]
    assert rows.dtype == object and rows.tolist() == want
    assert all(type(c) is int for row in rows.tolist() for c in row)
    assert want == compile_lists(FAD.own_tags, parent)
    assert kernel_basis(rows, parent.dimension) == kernel_basis(plain, parent.dimension)


def _factor_pairs(m: int):
    """(l1, l2 ... ln) for each Y-word of weight m, in all_ywords order, whose
    Lyndon factorization l1 l2 ... ln has n >= 2 factors."""
    for w in all_ywords(m):
        factors = lyndon_factors(w)
        if len(factors) > 1:
            yield factors[0], w[len(factors[0]) :]


def _fraction_star_rows(columns: list[XSeries], k: int) -> list:
    """The star-harmonic rows rebuilt from the rational star_word images."""
    stars = [star_word(c).terms for c in columns]
    rows = []
    for u, v in _factor_pairs(k):
        row = [Fraction(0)] * len(columns)
        for w, mult in harmonic_words(u, v).items():
            for j, terms in enumerate(stars):
                row[j] += mult * terms.get(w, 0)
        rows.append(row)
    return rows


def _column_pairs(k: int):
    """(integer columns, the same columns as series) for the Lyndon and the
    raw word coordinates at weight k."""
    yield (
        [bracketing(w) for w in lyndon_words(k)],
        [e.expansion for e in lyndon_primitive_basis(k)],
    )
    words = sorted(all_xwords(k))
    yield [{w: 1} for w in words], [XSeries.word(w, 1, k) for w in words]


@pytest.mark.parametrize("k", range(2, 9))
def test_star_harmonic_rows_are_k_times_the_rational_rows(k) -> None:
    for ints, series in _column_pairs(k):
        oracle = _fraction_star_rows(series, k)
        rows = list_rows(_star_harmonic_rows(_word_index(ints), k), len(ints))
        assert rows == [[k * c for c in r] for r in oracle]


def _fraction_sharp_rows(columns: list[XSeries], k: int) -> list:
    """The sharp-harmonic rows rebuilt from the rational q_right images: one
    per l >= 1 and factor pair (u, v) of total weight k - l that meets an
    image."""
    images = [q_right(c).terms for c in columns]
    rows = []
    for m in range(2, k):
        for u, v in _factor_pairs(m):
            expansion = harmonic_words(u, v)
            for l in range(1, k - m + 1):
                keys = [((l,) + w, mult) for w, mult in expansion.items()]
                if not any(y in t for y, _ in keys for t in images):
                    continue
                rows.append([
                    sum((mult * t.get(y, 0) for y, mult in keys), Fraction(0))
                    for t in images
                ])
    return rows


@pytest.mark.parametrize("k", range(2, 9))
def test_sharp_harmonic_rows_equal_the_rational_rows(k) -> None:
    for ints, series in _column_pairs(k):
        oracle = _fraction_sharp_rows(series, k)
        assert list_rows(_sharp_harmonic_rows(_word_index(ints), k), len(ints)) == oracle


def _ywords_kernel(products, k: int) -> list:
    """Canonical kernel of the products of weight k as rows over raw Y-word
    coordinates; it fixes the row space."""
    pos = {w: i for i, w in enumerate(all_ywords(k))}
    rows = []
    for expansion in products:
        row = [0] * len(pos)
        for w, mult in expansion.items():
            row[pos[w]] += mult
        rows.append(row)
    return kernel_basis(rows, len(pos))


def _decoded_products(k: int):
    """The table of spanning products of weight k as {Y-word: multiplicity},
    each code decoded by reading its binary digits as blocks 1 0^{j-1}."""
    starts, codes, mults = _harmonic_products(k)
    for a, b in zip(starts, starts[1:]):
        yield {leading_blocks(format(c, "b")): m for c, m in zip(codes[a:b], mults[a:b])}


@pytest.mark.parametrize("k", range(2, 11))
def test_factor_pair_products_span_all_pair_products(k) -> None:
    pairs = (harmonic_words(u, v) for u, v in word_pairs(k, all_ywords))
    assert _ywords_kernel(_decoded_products(k), k) == _ywords_kernel(pairs, k)


def test_product_table_stays_compact() -> None:
    size = sum(a.itemsize * len(a) for m in range(2, 12) for a in _harmonic_products(m))
    assert size < 500_000


def _pair_star_harmonic_rows(index: dict, k: int) -> list:
    """The star-harmonic rows over every nonempty pair (u, v), wt u <= wt v."""
    star = {y: [(j, k * c) for j, c in cols]
            for w, cols in index.items() if (y := leading_blocks(w)) is not None}
    star[(1,) * k] = star.get((1,) * k, []) + index.get("0" * (k - 1) + "1", [])
    return [(star, harmonic_words(u, v).items()) for u, v in word_pairs(k, all_ywords)]


def _pair_sharp_harmonic_rows(index: dict, k: int) -> list:
    """The sharp-harmonic rows over every l >= 1 and nonempty pair (u, v) with
    l + wt u + wt v = k that meets some column."""
    sharp = {y: cols for w, cols in index.items()
             if (y := trailing_blocks(w)) is not None}
    rows = []
    for m in range(2, k):
        for u, v in word_pairs(m, all_ywords):
            expansion = harmonic_words(u, v)
            for l in range(1, k - m + 1):
                terms = [((l,) + w, mult) for w, mult in expansion.items()]
                if any(y in sharp for y, _ in terms):
                    rows.append((sharp, terms))
    return rows


@pytest.mark.parametrize("name", ["dmr", "addmr", "addmr-fad", "addmr-fad-parity"])
def test_kernels_match_the_pair_rows(name, monkeypatch) -> None:
    space = SpaceId.parse(name)
    compiled = [full_rows_kernel(space, k) for k in range(1, 10)]
    monkeypatch.setitem(spaces._ROW_BUILDERS, "star-harmonic", _pair_star_harmonic_rows)
    monkeypatch.setitem(spaces._ROW_BUILDERS, "sharp-harmonic", _pair_sharp_harmonic_rows)
    pairs = [full_rows_kernel(space, k) for k in range(1, 10)]
    assert compiled == pairs


def _mobius(n: int) -> int:
    out, q = 1, 2
    while n > 1:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return out


@pytest.mark.parametrize("k", range(2, 13))
def test_one_star_row_per_non_lyndon_composition(k) -> None:
    lyndon = sum(_mobius(k // d) * (2**d - 1) for d in range(1, k + 1) if k % d == 0)
    assert lyndon % k == 0
    columns = [bracketing(w) for w in lyndon_words(k)]
    rows = _star_harmonic_rows(_word_index(columns), k)
    assert len(rows) == 2 ** (k - 1) - lyndon // k
