"""Shared result emitters for the perf benches under ``benchmarks/``.

(The paper's figures and ablations are not here: ``python -m
repro.experiments.runall`` regenerates them, and the committed reports are
``benchmarks/results/report-*.{md,csv}``.)

Every bench writes a machine-readable ``benchmarks/results/<name>.json``
(schema-versioned, sorted keys) via :func:`write_json_result`, so
downstream tooling (perf-regression gates, trend charts) parses one
format; a bench that prints a table also writes ``<name>.txt``.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Version of the machine-readable result envelope.  Bump when the
#: envelope's shape changes.
BENCH_SCHEMA_VERSION = 1


def _jsonable(obj):
    """Coerce numpy scalars/arrays, enums, tuples and NaN into JSON types."""
    if isinstance(obj, dict):
        return {
            (k.value if isinstance(k, Enum) else str(k)): _jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def write_json_result(name: str, data, extra: dict | None = None) -> Path:
    """Write ``benchmarks/results/<name>.json``.

    The envelope is deterministic (schema-versioned, sorted keys).  It
    carries a ``scale`` only when the bench passes the one it ran at
    through ``extra``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "name": name,
        "data": _jsonable(data),
    }
    if extra:
        payload.update(_jsonable(extra))
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_result(name: str, text: str, data=None) -> None:
    """Persist a bench's table under benchmarks/results/ (+ JSON twin)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    write_json_result(name, data if data is not None else {"text": text})
    print("\n" + text)


def write_bench_stats(name: str, benchmark, **data) -> None:
    """Machine-readable timing stats for a pytest-benchmark measurement.

    Tolerates a disabled/absent benchmark fixture (``--benchmark-disable``
    smoke runs): the data fields are written either way; timing fields
    only when stats exist.
    """
    stats = getattr(benchmark, "stats", None)
    row = dict(data)
    if stats is not None:
        s = stats.stats
        row.update(
            mean_s=s.mean, min_s=s.min, max_s=s.max, rounds=len(s.data)
        )
    write_json_result(name, row)
