"""On-disk cache of computed kernel bases.

Only spaces solved on a parent are cached: a root's closed form is cheaper
to build than to read and check.  Files are named
<space>-<weight>-<schema_version>.json and store a SubspaceBasis with the
CRC-32 of its canonical JSON; bumping the schema version (which also encodes
the pivot rule) invalidates old entries.  The directory defaults to
~/.cache/dslforge and is overridden by DSLFORGE_CACHE_DIR.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zlib
from pathlib import Path

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


def _checksum(payload: dict) -> int:
    """CRC-32 of the canonical JSON.  It guards against edited entries, not
    forged ones; zlib is already loaded by shutil, which tempfile imports,
    while importing hashlib initialises OpenSSL, about 3.5 MB of resident
    memory for every cache reader (CPython 3.11, Linux x86-64)."""
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode())


def load_basis(space: SpaceId, k: int) -> SubspaceBasis | None:
    """The cached basis, or None (a miss) when the entry is absent, of another
    schema, unreadable or nested too deeply to parse, fails its checksum, or
    is structurally inconsistent with its key.  The header is read as
    stored: the space must be the key's name exactly, and the weight and
    dimension must be ints, not floats, strings or booleans."""
    path = _entry_path(space, k)
    if not path.is_file():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.pop("crc32", None) != _checksum(data):
            return None
        if data.get("schema") != SCHEMA_VERSION or data.get("space") != space.key:
            return None
        weight, dimension = data.get("weight"), data.get("dimension")
        if type(weight) is not int or weight != k or type(dimension) is not int:
            return None
        basis = SubspaceBasis.from_json_dict(data)
        if dimension != basis.dimension:
            return None
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
        return None  # json.load raises RecursionError on too deep nesting
    if any(set(map(len, v.terms)) - {k} for v in basis.vectors):
        return None
    return basis


def store_basis(basis: SubspaceBasis) -> Path:
    """Write the entry and its checksum through a private temporary file in
    the cache directory and rename it into place, so concurrent writers never
    share a file."""
    payload = basis.to_json_dict()
    payload["crc32"] = _checksum(payload)
    path = _entry_path(basis.space, basis.weight)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
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


def clear_cache() -> int:
    """Remove all cache entries; returns the number of files removed."""
    base = cache_dir()
    if not base.is_dir():
        return 0
    count = 0
    for path in base.glob("*.json"):
        path.unlink()
        count += 1
    return count


def list_entries() -> list[str]:
    base = cache_dir()
    if not base.is_dir():
        return []
    return sorted(p.name for p in base.glob("*.json"))
