"""On-disk cache of computed kernel bases.

Only spaces solved on a parent are cached: a root's closed form is cheaper
to build than to read and check.  Files are named
<space>-<weight>-<schema_version>.json and store a SubspaceBasis, as its own
JSON writer writes and its reader checks it, with the CRC-32 of that
canonical JSON; bumping the schema version (which also encodes the pivot
rule) invalidates old entries.  The directory defaults to ~/.cache/dslforge
and is overridden by DSLFORGE_CACHE_DIR.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
import zlib
from operator import itemgetter
from pathlib import Path

from .series import JSON_FORMAT, _json_object, _series_json
from .spaces import (
    SCHEMA_VERSION,
    SpaceId,
    SubspaceBasis,
    compile_on_parent,
    rational_kernel,
    root_basis,
)

ENV_VAR = "DSLFORGE_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dslforge"


def _entry_path(space: SpaceId, k: int) -> Path:
    return cache_dir() / f"{space.key}-{k}-{SCHEMA_VERSION}.json"


# A name _entry_path makes (or made for a bool weight), under any schema, then
# the suffix of the temporary file store_basis writes it through.
_ENTRY_NAME = re.compile(
    r"[a-z0-9]+(?:-[a-z0-9]+)*-(?:[0-9]+|True|False)-s[0-9]+p[0-9]+\.json([a-z0-9_]+\.tmp)?"
)


def _checksum(payload: dict) -> int:
    """CRC-32 of the canonical JSON, json.dumps(payload, sort_keys=True).  It
    guards against edited entries, not forged ones; zlib is already loaded
    by shutil, which tempfile imports, while importing hashlib initialises
    OpenSSL, about 3.5 MB of resident memory for every cache reader (CPython
    3.11, Linux x86-64).  An entry of the shape store_basis writes has its
    canonical text built from its strings (_canonical_entry); any other is
    dumped here, at the call depth of the parse, so what parses never
    overflows."""
    text = _canonical_entry(payload)
    if text is None:
        text = json.dumps(payload, sort_keys=True)
    return zlib.crc32(text.encode())


_VECTOR_KEYS = {"format", "alphabet", "weight_bound", "terms"}


def _canonical(fields: dict, vectors: list[str]) -> str:
    """json.dumps({**fields, "vectors": ...}, sort_keys=True) for fields of
    int and str values, given the canonical texts of the vectors."""
    texts = {f: json.dumps(v) for f, v in fields.items() if f != "vectors"}
    texts["vectors"] = f"[{', '.join(vectors)}]"
    return "{" + ", ".join(f"{json.dumps(f)}: {texts[f]}" for f in sorted(texts)) + "}"


def _canonical_entry(payload: dict) -> str | None:
    """json.dumps(payload, sort_keys=True) when the payload has the shape
    store_basis writes: header values that are ints or strs, and vectors of
    exactly a str format and alphabet, an int weight_bound and terms of
    exactly a str word and coeff, with no string that needs a JSON escape
    (printable ASCII, no quote, no backslash).  None for any other payload."""
    vectors = payload.get("vectors")
    if type(vectors) is not list or not all(
        type(f) is str and (f == "vectors" or type(v) in (int, str)) for f, v in payload.items()
    ):
        return None
    texts = []
    for v in vectors:
        if type(v) is not dict or v.keys() != _VECTOR_KEYS:
            return None
        fmt, alphabet, bound, terms = v["format"], v["alphabet"], v["weight_bound"], v["terms"]
        if not (type(fmt) is str and type(alphabet) is str and type(bound) is int
                and type(terms) is list and set(map(type, terms)) <= {dict}
                and set(map(len, terms)) <= {2}):
            return None
        try:  # a term of two keys without these, or a string that is not a str, declines
            words = list(map(itemgetter("word"), terms))
            coeffs = list(map(itemgetter("coeff"), terms))
            text = "".join([fmt, alphabet, *words, *coeffs])
        except (KeyError, TypeError):
            return None
        if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
            return None
        texts.append(_series_json(fmt, alphabet, bound, words, coeffs, True))
    return _canonical(payload, texts)


def load_basis(space: SpaceId, k: int) -> SubspaceBasis | None:
    """The cached basis, or None (a miss) when the entry cannot be opened
    (OSError), is not one JSON object, fails its checksum, is not a basis as
    SubspaceBasis.from_json_dict reads one, or holds another space or weight
    than its key's: every reader raises ValueError.  Parse and checksum run
    at one call depth, so what parses never overflows in the checksum."""
    try:
        with open(_entry_path(space, k), "r", encoding="utf-8") as fh:
            data = _json_object(fh.read(), fh.name)
        if data.pop("crc32", None) != _checksum(data):
            return None
        basis = SubspaceBasis.from_json_dict(data)
    except (OSError, ValueError):
        return None
    return basis if (basis.space, basis.weight) == (space, k) else None


def store_basis(basis: SubspaceBasis) -> Path:
    """Write the entry and its checksum through a private temporary file in
    the cache directory and rename it into place, so concurrent writers never
    share a file.  A clear_cache that removes the temporary file first leaves
    the entry unstored, as if it had run just after the rename."""
    header, written, canonical = basis._header(), [], []
    for v in basis.vectors:
        words, coeffs = v._term_strings()
        head = (JSON_FORMAT, v._alphabet, v.weight_bound)
        written.append(_series_json(*head, words, coeffs, False))
        canonical.append(_series_json(*head, words, coeffs, True))
    crc = zlib.crc32(_canonical(header, canonical).encode())
    text = f'{json.dumps(header)[:-1]}, "vectors": [{", ".join(written)}], "crc32": {crc}}}'
    path = _entry_path(basis.space, basis.weight)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except FileNotFoundError:
        pass  # the temporary file was cleared before the rename
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def get_basis(space: SpaceId, k: int, use_cache: bool = True) -> SubspaceBasis:
    """A root's basis in closed form, never cached: it is cheaper to build
    than to read and check.  Any other space is loaded from the cache, or
    solved on its parent's basis (read through this function, so the parent
    is cached too unless it is a root) and stored."""
    return _resolve_basis(space, k, use_cache, {})


def _resolve_basis(space: SpaceId, k: int, use_cache: bool, resolved: dict) -> SubspaceBasis:
    """get_basis, where resolved maps the spaces already resolved at weight k
    to their bases and gains every basis this call resolves, the parents
    included, so that a parent is computed once even without the cache."""
    basis = resolved.get(space)
    if basis is None and space.parent is None:
        basis = root_basis(space, k)
    elif basis is None:
        basis = load_basis(space, k) if use_cache else None
        if basis is None:
            parent = _resolve_basis(space.parent, k, use_cache, resolved)
            basis = rational_kernel(space, parent, compile_on_parent(space, parent))
            if use_cache:
                store_basis(basis)
    resolved[space] = basis
    return basis


def _cache_files() -> list[tuple[Path, bool]]:
    """(path, is an entry) for the entries and temporary files of the cache
    directory; no other file there is the cache's."""
    base = cache_dir()
    matches = ((p, _ENTRY_NAME.fullmatch(p.name)) for p in base.iterdir()) if base.is_dir() else ()
    return [(p, m[1] is None) for p, m in matches if m]


def clear_cache() -> int:
    """Remove the entries of every schema version and the temporary files of
    killed writers; returns the number of entries this call removed."""
    removed = 0
    for path, entry in _cache_files():
        with contextlib.suppress(FileNotFoundError):  # removed by another process
            path.unlink()
            removed += entry
    return removed


def list_entries() -> list[str]:
    return sorted(p.name for p, entry in _cache_files() if entry)
