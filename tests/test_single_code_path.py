"""Guard: ``src/repro`` ships one code path per behaviour.

There is no process-wide switch between an optimised path and its
predecessor, no second ads-repository backend, and no ``*_reference`` twin
in product code: oracles live in ``tests/oracles/`` and are imported by
tests only.  Every assertion here fails at the last commit that still had
``kernels.reference_mode()``.
"""

import ast
from pathlib import Path

import numpy as np

import repro
import repro.asap
from repro.asap.arena import AdsArena, ArenaRepository, CacherIndex
from repro.asap.protocol import AsapSearch
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.sim import kernels
from repro.sim.metrics import BandwidthLedger
from repro.workload.content import ContentIndex

SRC = Path(repro.__file__).parent


def test_kernels_has_no_reference_switch():
    assert not hasattr(kernels, "REFERENCE_ONLY")
    assert not hasattr(kernels, "reference_mode")


def test_no_reference_twins_or_oracle_imports_in_src():
    twins, oracle_imports = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "tests":
                    oracle_imports.append(f"{path}:{node.lineno}")
                continue
            else:
                continue
            twins += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name.lower().endswith("_reference")
            ]
    assert twins == []
    assert oracle_imports == []


def test_asap_has_one_repository_backend():
    assert not hasattr(repro.asap, "AdsRepository")
    assert not hasattr(repro.asap, "CacheEntry")
    assert not (SRC / "asap" / "repository.py").exists()
    n = 12
    overlay = Overlay(
        random_topology(n=n, avg_degree=3.0, rng=np.random.default_rng(0)),
        default_edge_latency_ms=10.0,
    )
    algo = AsapSearch(
        overlay, ContentIndex(), BandwidthLedger(), interests=[{0}] * n
    )
    assert isinstance(algo.arena, AdsArena)
    assert isinstance(algo.cachers, CacherIndex)
    assert all(
        type(repo) is ArenaRepository and repo.arena is algo.arena
        for repo in algo.repos
    )
