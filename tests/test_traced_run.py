"""The benchmark's traced run wraps library functions by name from outside
the package (`bench/tracing.py`), so a refactor that renames or reshapes one
of them breaks `--trace 1`.  This runs the tracer on a small dimension table,
cold and then warm, in a fresh interpreter, so that the wrappers never reach
the other tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import dslforge
import tracing
from dslforge.spaces import ADDMR_FAD_PARITY, DMR, VSTRPRTY, dimension_table

tracer = tracing.Tracer()
tracing.install(tracer)
spaces = [DMR, ADDMR_FAD_PARITY, VSTRPRTY]
tables = [dimension_table(spaces, 6), dimension_table(spaces, 6)]
tracing.memory_pass(tracer, lambda: None)
print(json.dumps({"tables": tables, "metrics": tracer.metrics(0.0, 1.0)}))
"""


def test_traced_dimension_table(tmp_path) -> None:
    env = {**os.environ, "DSLFORGE_CACHE_DIR": str(tmp_path / "cache")}
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(_ROOT / "src"), str(_ROOT / "bench")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    expected = {
        "dmr": [0, 0, 1, 0, 1, 0],
        "addmr-fad-parity": [0, 0, 0, 1, 0, 1],
        "vstrprty": [0, 3, 6, 12, 24, 48],
    }
    assert report["tables"] == [expected, expected]
    metrics = report["metrics"]
    # cold: dmr and addmr-fad-parity, with its parents addmr-fad and addmr,
    # miss at k = 1..6 and are solved once each; warm: the two requested
    # spaces that are not roots load from the cache
    assert metrics["cache.misses"] == 24
    assert metrics["cache.hits"] == 12
    assert metrics["cache.bytes_written"] > 0 and metrics["cache.bytes_read"] > 0
    addmr, addmr_fad = [0, 0, 0, 2, 2, 3], [0, 0, 0, 1, 0, 1]
    solved = expected["dmr"] + addmr + addmr_fad + expected["addmr-fad-parity"]
    assert metrics["linalg.kernel_dim"] == sum(solved)
    assert metrics["linalg.kernel_peak_mb"] > 0
    assert metrics["lyndon.calls"] > 0
