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
from pathlib import Path

from .series import _json_object
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
    """CRC-32 of the canonical JSON.  It guards against edited entries, not
    forged ones; zlib is already loaded by shutil, which tempfile imports,
    while importing hashlib initialises OpenSSL, about 3.5 MB of resident
    memory for every cache reader (CPython 3.11, Linux x86-64)."""
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode())


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
    payload = basis.to_json_dict()
    payload["crc32"] = _checksum(payload)
    path = _entry_path(basis.space, basis.weight)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
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
