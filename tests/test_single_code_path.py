"""Guard: ``src/repro`` ships one code path per behaviour.

There is no process-wide switch between an optimised path and its
predecessor, no second ads-repository backend, and no ``*_reference`` twin
in product code: oracles live in ``tests/oracles/`` and are imported by
tests only.  The first three guards fail at the last commit that still had
``kernels.reference_mode()``; the ads-cache one at the last commit that
kept arena rows, slot dicts, behind sets and a cacher index in step by
hand; the stub-graph and weighted-sampler ones at the last commit with a
scipy hop-matrix helper in ``transit_stub`` and per-call Zipf tables; the
walk post-processing one at the last commit where ``deliver`` dropped the
source itself and ``bucket_bytes`` was the only way to a bucket dict; the
instrumentation-seam ones at the last commit where nine host modules fed
tracer and telemetry one ``.enabled`` guard at a time; the stale-ad ones at
the last commit that replayed a source's patch history for every behind
entry of every lookup and repaired a delivery's lagging receivers one
Python call at a time; the one-serialisation ones at the last commit that
copied every result dict into a metrics registry, read the cache state a
second way and kept an arm for wire sizes that are not whole bytes; the
one-view / one-surface ones at the last commit where the overlay held the
live graph five ways, every node had a ``RepositoryView`` object, two flood
loops were kept in step by a comment and a live status view polled workers;
the filter-is-its-column ones at the last commit where ``repro.bloom`` shipped
per-filter objects and the store kept a counting copy of each churned source;
the single-walk ones at the last commit where ``rw_search`` post-processed
each walker's chunk on its own and the flat mirrors built the walk rows;
the paper's-schemes-only ones at the last commit that shipped expanding-ring
search, keep-alive and download traffic models and a default warm-up; the
every-module-backs-a-claim ones at the last commit that shipped flood-reach
and walk-coverage models and workload statistics no claim read, nine
single-valued protocol options and a content-listener list nobody joined;
the one-driver ones at the last commit whose ``report`` ran a cell from three
subcommands and shipped ``run_replications``; the keyword-hash one at the
last commit that hashed keywords one term at a time in Python integers and
built every source's filter in a per-node loop (``_shared_positions``); the
per-pair-state one also at the last commit that stored two ``int64`` words
a pair with interned topic codes, and the stub-graph one at the last commit
that imported scipy for the core's Dijkstra; the per-second-traffic one at
the last commit whose ledger kept a dict of seconds, filled by per-second
``record`` loops and read by telemetry through ``_buckets``; the exact-
telemetry one at the last commit whose telemetry kept log-bucket sketches
and Space-Saving trackers and added up documents of different cells; the
one-record-per-fact one at the last commit whose deliveries built a frozenset
of their receivers, whose refresh ticks ran through a ``PeriodicTimer`` and
whose super-peer tier was kept as a mask and a member list.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.asap
import repro.bloom
import repro.workload
from repro.asap.protocol import AsapParams, AsapSearch
from repro.asap import state as ads_state
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.experiments.parallel import run_cells
from repro.obs.telemetry import Telemetry
from repro.asap.delivery import AdForwarder, make_forwarder
from repro.search import base as search_base
from repro.search.base import SearchAlgorithm
from repro.sim.engine import SimulationEngine
from repro.network import transit_stub
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.sim import kernels
from repro.sim import metrics as sim_metrics
from repro.sim.metrics import BandwidthLedger
from repro.simulation.config import RunConfig
from repro.simulation.runner import run_experiment
from repro.workload.content import ContentIndex, Document
from repro.workload.edonkey import EdonkeyParams, synthesize_content

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
    algo = _small_asap()
    assert type(algo.state) is AdsState


def _small_asap(n=12):
    overlay = Overlay(
        random_topology(n=n, avg_degree=3.0, rng=np.random.default_rng(0)),
        default_edge_latency_ms=10.0,
    )
    return AsapSearch(
        overlay, ContentIndex(), BandwidthLedger(), interests=[{0}] * n
    )


def test_asap_holds_one_container_of_per_pair_state():
    """The ads cache is one relation stored once: ``AsapSearch`` owns a
    single :class:`AdsState`, a node's repository is a row of it, and
    nothing in ``repro.asap`` allocates rows, keeps a per-peer
    index, or hand-syncs an inverse (source -> cachers) index."""
    algo = _small_asap()
    n = algo.overlay.n

    def holds_pair_state(value):
        if isinstance(value, np.ndarray):
            return value.size >= n * n
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)) and len(value) == n:
            return any(isinstance(v, (dict, set, list, np.ndarray)) for v in value)
        return False

    owners = [name for name, value in vars(algo).items() if holds_pair_state(value)]
    assert owners == []
    # Two int32 cells per pair, 8 bytes; the eviction tie-break exists
    # only where a capacity reads it.
    def pair_arrays(state):
        return {
            name: getattr(state, name).dtype
            for name in AdsState.__slots__
            if holds_pair_state(getattr(state, name))
        }

    assert pair_arrays(algo.state) == {"entry": np.int32, "stamp": np.int32}
    bounded = AdsState(n, algo.state.interest_bits, algo.store, capacity=4)
    assert pair_arrays(bounded) == {
        "entry": np.int32, "stamp": np.int32, "seq": np.uint32,
    }
    assert not hasattr(algo, "cachers")

    banned = re.compile(
        r"_slot\b|_free\b|_order_src|\balloc\(|\brelease\(|\breserve\("
        r"|cachers\[[^\]]*\]\.(add|discard|update)"
        r"|_interest_masks|_interest_sets|_topic_members|_no_capacity"
        r"|\blexsort\b"
    )
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted((SRC / "asap").glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
    assert not (SRC / "asap" / "arena.py").exists()
    # One fresh-insert arm: insertion numbers are handed out in one place.
    assert (SRC / "asap" / "state.py").read_text().count("np.arange(") == 1


def _calls(tree, attr):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == attr
    ]


def test_src_has_one_stub_graph_builder():
    """Transit domains and stub domains are drawn by the same
    ``_random_graphs`` and measured by one breadth-first helper, ``_bfs``,
    which serves connectivity, gateway rows and same-domain pairs; no
    all-pairs hop matrix is built.  Nothing in ``src`` imports scipy: the
    144-node core's distances are a numpy Floyd-Warshall, and the hop and
    Dijkstra oracles are test code."""
    assert not hasattr(transit_stub, "_bfs_all_pairs")
    assert not hasattr(transit_stub, "_hop_matrix")
    scipy_imports, triangle_draws, hop_builders = {}, [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                scipy_imports.setdefault(path.name, []).extend(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("scipy") for a in node.names), path
        triangle_draws += [path.name for _ in _calls(tree, "triu_indices")]
        hop_builders += [
            f"{path.name}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and re.search(r"hop_matrix|all_pairs|shortest_path", node.name)
        ]
    assert scipy_imports == {}
    assert triangle_draws == ["transit_stub.py"]
    assert hop_builders == []
    callers = {
        node.name: len(_calls(node, "_bfs"))
        for node in ast.walk(ast.parse(Path(transit_stub.__file__).read_text()))
        if isinstance(node, ast.FunctionDef) and _calls(node, "_bfs")
    }
    assert callers == {"_random_graphs": 1, "materialise": 1, "stub_hops": 1}


_WITHOUT_SCIPY = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is not importable here")
        return None

sys.meta_path.insert(0, Refuse())
from repro.simulation import run_experiment, scaled_config

for algorithm in ("asap_rw", "flooding"):
    config = scaled_config(algorithm, n_peers=60, use_physical_network=True)
    assert run_experiment(config).outcomes, algorithm
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "networkx")))
"""


def test_a_cell_runs_without_scipy_or_networkx():
    """A fresh interpreter whose import system refuses scipy and networkx
    runs an ASAP(RW) and a flooding cell on the physical network, and
    neither module is loaded at the end: the simulator process never
    needs them (tests keep scipy for their oracles)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_src_has_one_weighted_sampler():
    """Per-item weighted draws and weighted draws without replacement go
    through ``repro.workload.sampling``; the only ``choice(..., p=...)``
    calls left in ``src/`` are one-shot bulk draws with replacement."""
    zipf_tables = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for call in _calls(tree, "choice"):
            keywords = {kw.arg for kw in call.keywords}
            if "p" in keywords:
                assert "size" in keywords and "replace" not in keywords, (
                    f"{path}:{call.lineno}"
                )
        zipf_tables += [
            f"{path.name}:{call.lineno}" for call in _calls(tree, "zipf_table")
        ]
        if path.parent.name == "workload" and path.name != "sampling.py":
            assert not _calls(tree, "searchsorted"), path
    # One table constructor, asked for by synthesis's vocabulary table, a
    # hand-made document's and the trace generator's query draw.
    assert len(zipf_tables) == 3 and {t.split(":")[0] for t in zipf_tables} == {
        "edonkey.py", "generator.py",
    }


def test_src_has_one_walk_post_processing():
    """The delivery kernel turns walks into ``(receivers, per-second
    counts)`` through the shared functions -- ``receivers`` drops the
    source, ``arrival_seconds`` truncates to seconds -- and the forwarder
    books the counts through ``AdForwarder._finish``, whose one ledger
    ``add`` is the count-to-bytes rule; none of them carries its own.  A
    search round and a batch's last few lanes are one ``walk_block``: no
    running sum or concatenation per walker."""
    tree = ast.parse((SRC / "sim" / "kernels.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }

    def called(name):
        return {
            getattr(call.func, "attr", getattr(call.func, "id", None))
            for call in ast.walk(functions[name])
            if isinstance(call, ast.Call)
        }

    def ms_to_s(name):
        return [
            node for node in ast.walk(functions[name])
            if isinstance(node, ast.Constant) and node.value == 1000.0
        ]

    assert {"receivers", "arrival_seconds", "walk_block", "_lockstep"} <= called(
        "rw_delivery_batch"
    )
    own_rules = {"nonzero", "flatnonzero", "delete", "searchsorted", "at", "zip"}
    for kernel in ("rw_delivery_batch", "_lockstep", "second_counts"):
        assert not called(kernel) & own_rules, kernel
        assert not ms_to_s(kernel), kernel
    assert [name for name in functions if ms_to_s(name)] == ["arrival_seconds"]
    assert {"walk_block", "arrival_seconds", "second_counts"} <= called("rw_search")
    assert not called("rw_search") & {"cumsum", "concatenate", "searchsorted"}
    assert not hasattr(kernels, "segmented_cumsum")
    assert "segmented_cumsum" not in kernels.__all__

    forwarder = ast.parse((SRC / "asap" / "delivery.py").read_text())
    rw = next(
        node for node in forwarder.body
        if isinstance(node, ast.ClassDef) and node.name == "RandomWalkAdForwarder"
    )
    calls = {
        getattr(call.func, "attr", None)
        for call in ast.walk(rw) if isinstance(call, ast.Call)
    }
    assert "_finish" in calls
    assert not calls & (own_rules | {"bincount"})


def test_per_second_traffic_has_one_write_path():
    """Per-second traffic has one form, the ledger's array, and one write
    path into it, ``BandwidthLedger.add``: no count-to-dict helper, no
    ``record`` of a second turned back into a time (the per-second loop
    that booked a dict), no per-second dict in a walk, a ``record_each``
    that books one ``bincount``, and nothing outside ``repro.sim.metrics``
    reading a private ledger attribute."""
    from repro.obs.instrument import Instrumentation

    for gone in ("bucket_dict", "bucket_bytes"):
        assert not hasattr(kernels, gone) and gone not in kernels.__all__, gone
    assert not hasattr(BandwidthLedger(), "_buckets")
    record_each = ast.parse(
        inspect.cleandoc("\n" + inspect.getsource(BandwidthLedger.record_each))
    )
    assert _calls(record_each, "add") and _calls(record_each, "bincount")
    assert not _calls(record_each, "unique")
    assert not [n for n in ast.walk(record_each) if isinstance(n, (ast.For, ast.While))]
    assert "first_second" in inspect.signature(Instrumentation.ad_delivered).parameters

    def owner(node):
        value = node.value
        return getattr(value, "id", getattr(value, "attr", None))

    private, per_second_records = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = path.relative_to(SRC)
        if where != Path("sim", "metrics.py"):
            private += [
                f"{where}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr.startswith("_") and owner(node) == "ledger"
            ]
        per_second_records += [
            f"{where}:{call.lineno}" for call in _calls(tree, "record")
            if call.args and isinstance(call.args[0], ast.BinOp)
            and isinstance(call.args[0].right, ast.Constant)
            and call.args[0].right.value == 0.5
        ]
        if path.parent.name == "search" or path.name == "delivery.py":
            assert "defaultdict" not in path.read_text(), where
    assert private == []
    assert per_second_records == []


def test_telemetry_is_exact_with_one_quantile_definition():
    """Hot peers, links and quantiles come from the run's charges: no
    sketch, no heavy-hitter tracker and no fold that adds up documents of
    different cells is left in ``src/``, and ``quantile_nearest_rank`` is
    the only quantile code in ``repro.obs``."""
    import repro.obs
    from repro.obs import probes, telemetry

    gone = {"LogBucketSketch", "SpaceSaving", "pow2_sketch", "merge", "_fold",
            "merge_summaries", "_key_str"}
    defined, mentioned = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = path.relative_to(SRC)
        defined += [
            f"{where}:{node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone
        ]
        mentioned += [
            f"{where}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and (getattr(node, "id", None) or getattr(node, "attr", None)
                 or getattr(node, "name", None)) in gone
        ]
    assert defined == [] and mentioned == []
    for module in (repro.obs, telemetry, probes):
        assert not gone & set(module.__all__), module.__name__
    for name in ("_peer_bytes", "hot_peers", "hot_links", "response_time_ms"):
        assert not hasattr(telemetry.Telemetry(), name), name

    quantile_code = re.compile(r"quantile|percentile|median", re.IGNORECASE)
    definitions, calls = [], []
    for path in sorted((SRC / "obs").glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and quantile_code.search(node.name)
        ]
        calls += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and quantile_code.search(
                getattr(node.func, "attr", None) or getattr(node.func, "id", "")
            )
            and (getattr(node.func, "attr", None) or node.func.id)
            != "quantile_nearest_rank"
        ]
    assert definitions == ["quantile_nearest_rank"]
    assert calls == []


def test_one_way_to_walk_an_ad():
    """Every ASAP(RW) delivery is one keyed walk through one kernel: no
    warm-up planner, no per-event five-lane kernel, no RNG in a forwarder,
    and ``walk_draws`` the only producer of delivery uniforms."""
    from repro.asap import delivery

    assert not hasattr(kernels, "rw_delivery") and "rw_delivery" not in kernels.__all__
    for gone in ("plan_full_ads", "_step_chunk", "_take_stepped", "_plan", "_make_ad"):
        assert not hasattr(delivery.RandomWalkAdForwarder, gone), gone
        assert not hasattr(AdForwarder, gone), gone
    assert not hasattr(delivery, "_PlannedWalk")
    text = (SRC / "asap" / "delivery.py").read_text()
    for gone in ("_stepped", "self._draws", "SimulationError"):
        assert gone not in text, gone

    # No forwarder holds or reads an RNG; the factory takes a key instead.
    assert "rng" not in inspect.signature(make_forwarder).parameters
    assert "key" in inspect.signature(make_forwarder).parameters
    assert "rng" not in inspect.signature(AdForwarder.__init__).parameters
    tree = ast.parse(text)
    assert not [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "rng"
    ]
    for kind in ("fld", "rw", "gsa"):
        algo = AsapSearch(
            _small_asap().overlay, ContentIndex(), BandwidthLedger(),
            interests=[{0}] * 12, params=AsapParams(forwarder=kind),
        )
        held = vars(algo.forwarder).values()
        assert not any(isinstance(v, (np.random.Generator, np.random.BitGenerator)) for v in held)

    # The uniforms of a delivery come from ``walk_draws`` and from nothing
    # else in src: it is the one caller of a bit generator's raw output, and
    # no forwarder draws through a distribution method.
    producers = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and _calls(fn, "random_raw"):
                producers.append(f"{path.relative_to(SRC)}:{fn.name}")
    assert producers == ["asap/delivery.py:walk_draws"]
    assert not _calls(tree, "random") and not _calls(tree, "integers")
    drawers = {
        f"{owner.name}.{fn.name}"
        for owner in tree.body if isinstance(owner, ast.ClassDef)
        for fn in owner.body
        if isinstance(fn, ast.FunctionDef) and _calls(fn, "walk_draws")
    }
    assert drawers == {"RandomWalkAdForwarder._walk", "GsaAdForwarder.deliver"}


# --------------------------------------------------- one instrumentation seam
def _src_trees():
    return [
        (path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
    ]


def test_src_reads_no_enabled_flag():
    """A sink is attached or it is absent; nothing asks one whether it is on."""
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "enabled"
    ]
    assert reads == []


def test_only_obs_and_the_run_builders_import_the_sinks():
    """The action log and telemetry are built by ``run_experiment`` and
    written by ``repro.obs``; every other module reaches them through its
    ``obs`` attribute, or not at all."""
    sinks = {"repro.obs.actions", "repro.obs.telemetry"}
    allowed = {"simulation/runner.py"}
    importers = set()
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = {node.module}
            elif isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            else:
                continue
            if modules & sinks and not name.startswith("obs/"):
                importers.add(name)
    assert importers == allowed


def test_hosts_feed_no_sink_directly():
    """Outside ``repro.obs`` nothing calls a ``Telemetry.record_*`` method
    or appends to an action log, and nothing holds one."""
    feeds = {name for name in vars(Telemetry) if name.startswith("record_")}
    feeds |= {"take_id"}
    hits = []
    for name, tree in _src_trees():
        if name.startswith("obs/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in feeds:
                    hits.append(f"{name}:{node.lineno} .{node.func.attr}()")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("log", "telemetry")
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                hits.append(f"{name}:{node.lineno} self.{node.attr}")
    assert hits == []


def test_hosts_carry_one_obs_attribute():
    algo = _small_asap()
    for host in (algo, algo.forwarder):
        assert host.obs is None
        assert not hasattr(host, "tracer") and not hasattr(host, "telemetry")
        assert not hasattr(host, "set_tracer") and not hasattr(host, "set_telemetry")
    assert not hasattr(algo.forwarder, "_trace_delivery")
    marker = object()
    algo.attach(marker)
    assert algo.obs is marker and algo.forwarder.obs is marker


def test_engine_has_one_observer_slot_and_no_telemetry_slot():
    engine = SimulationEngine()
    assert engine.observer is None
    for name in ("telemetry", "set_telemetry", "_telemetry"):
        assert not hasattr(engine, name)


# ------------------------------------------------- stale ads at array speed
def _method(tree, cls, name):
    owner = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls
    )
    return next(
        n for n in owner.body if isinstance(n, ast.FunctionDef) and n.name == name
    )


def test_asap_replays_no_patch_history():
    """A filter version is a matrix column; the patch-parity replay that
    rebuilt one per behind entry is an oracle (``tests/oracles/store.py``)."""
    replays = [
        f"{path.name}:{lineno}"
        for path in sorted((SRC / "asap").glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "symmetric_difference_update" in line
    ]
    assert replays == []
    assert not hasattr(SourceFilterStore, "match_at_version")


def test_a_lookup_is_loop_free():
    tree = ast.parse((SRC / "asap" / "state.py").read_text())
    loops = [
        node for node in ast.walk(_method(tree, "AdsState", "lookup"))
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert loops == []


def test_an_ads_request_adopts_every_reply_in_one_exchange():
    """``AdsState.exchange`` adopts all of a request's replies at once; the
    per-neighbour adoption, and the halves of ``_insert`` / ``_evict`` that
    stored many ads at one receiver for it, are the oracle's
    (``tests/oracles/exchange.py``)."""
    adopters = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "asap").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "adopt"
    ]
    assert adopters == []
    state = ast.parse((SRC / "asap" / "state.py").read_text())
    for name in ("_insert", "_evict"):
        assert _calls(_method(state, "AdsState", name), "isinstance") == []
    request = _method(
        ast.parse((SRC / "asap" / "protocol.py").read_text()), "AsapSearch", "_ads_request"
    )
    exchanges = _calls(request, "exchange")
    assert len(exchanges) == 1
    loops = [
        node for node in ast.walk(request)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert not any(exchanges[0] in ast.walk(loop) for loop in loops)
    writers = {"accept", "accept_repair", "remove", "_insert", "_evict", "mark_missed"}
    writes = [
        call for call in ast.walk(request)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) in writers
    ]
    assert writes == []


def test_a_delivery_repairs_its_lagging_receivers_in_one_step():
    """The pull-per-receiver repair is an oracle (``tests/oracles/asap.py``)."""
    assert not hasattr(AsapSearch, "_repair_entry")
    assert not hasattr(AsapSearch, "_repair_plan")
    tree = ast.parse((SRC / "asap" / "protocol.py").read_text())
    assert len(_calls(_method(tree, "AsapSearch", "_merge_ad"), "_repair")) == 1


def test_each_asap_fact_is_held_once():
    """A delivery's receivers are one ascending array, a refresh tick is one
    engine event, the super-peer tier is one mask."""
    hits = [
        f"{name}:{lineno}"
        for name, path in ((p.relative_to(SRC), p) for p in sorted(SRC.rglob("*.py")))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bPeriodicTimer\b|\bschedule_after\b", line)
    ]
    assert hits == []
    assert "frozenset" not in (SRC / "asap" / "delivery.py").read_text()
    tree = ast.parse((SRC / "asap" / "protocol.py").read_text())
    params = [a.arg for a in _method(tree, "AsapSearch", "_merge_ad").args.args]
    assert params == ["self", "ad", "now", "receivers"]
    superpeer = ast.parse((SRC / "asap" / "superpeer.py").read_text())
    assert not [
        node for node in ast.walk(superpeer)
        if isinstance(node, ast.Attribute) and node.attr == "_supers"
    ]
    algo = _small_asap()
    assert not any(isinstance(v, (set, frozenset)) for v in vars(algo).values())


def test_a_search_matches_its_positions_once():
    tree = ast.parse((SRC / "asap" / "protocol.py").read_text())
    assert len(_calls(tree, "match_current")) == 1
    assert len(_calls(_method(tree, "AsapSearch", "_search_impl"), "match_current")) == 1


# ------------------------------------------ every fact is serialised once
def test_src_has_no_metrics_export_layer():
    """A run's numbers are written as the dicts their objects expose
    (``report run`` -> ``run.json``), in one format."""
    banned = re.compile(r"to_prometheus|MetricsRegistry|\.prom\b")
    hits = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
    assert not (SRC / "obs" / "metrics.py").exists()


def test_src_reads_the_cache_state_one_way():
    """Entries, occupancy, behind entries and audience coverage are the
    probes' (``repro.obs.probes.snapshot_state``); nothing else in ``src/``
    is named after a second reader."""
    named = [
        f"{name}:{getattr(node, 'lineno', 0)}"
        for name, tree in _src_trees()
        for node in ast.walk(tree)
        for ident in (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None), getattr(node, "arg", None),
            getattr(node, "module", None),
        )
        if isinstance(ident, str) and "diagnos" in ident.lower()
    ]
    assert named == []
    assert not list(SRC.rglob("*diagnos*.py"))


def test_the_runner_takes_no_cache_state_flag():
    keyword_only = {
        name
        for name, param in inspect.signature(run_experiment).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    }
    assert keyword_only == {
        "trace_path", "profile", "audit", "telemetry", "probes", "phase_times",
    }
    assert "collect_diagnostics" not in inspect.signature(run_cells).parameters


def test_wire_sizes_are_whole_bytes_with_no_second_arm():
    """The sizes are module constants (``test_search_base`` pins each as a
    positive ``int``); no option sets them and no byte sum keeps an arm for
    fractional sizes."""
    assert not hasattr(search_base, "MessageSizes")
    for host in (SearchAlgorithm, AsapSearch, AdForwarder):
        assert "sizes" not in inspect.signature(host.__init__).parameters
    assert "sizes" not in inspect.signature(make_forwarder).parameters
    for function in (
        BandwidthLedger.add, BandwidthLedger.record_each, AsapSearch._ads_request
    ):
        source = inspect.getsource(function)
        for arm in ("cumsum", "floor", "whole_header"):
            assert arm not in source, (function.__qualname__, arm)


# ------------------------------- one view of the overlay, one ads surface
def test_overlay_holds_one_epoch_keyed_cache():
    """The per-epoch ``WalkCsr`` is the only derived view of the live graph:
    one ``(epoch, value)`` slot, no per-node Python list, none of the views
    it replaced."""
    overlay = _small_asap().overlay
    overlay.walk_csr()
    overlay.live_neighbors(0)
    caches = [
        name
        for name, value in vars(overlay).items()
        if name.endswith("_cache")
        or (isinstance(value, tuple) and len(value) == 2 and value[0] == overlay.epoch)
    ]
    assert caches == ["_csr_cache"]
    assert not any(isinstance(value, list) for value in vars(overlay).values())
    for gone in (
        "live_edges", "live_degrees", "live_csr", "neighbors", "live_degree",
        "_adj_nodes",
    ):
        assert not hasattr(overlay, gone), gone


def test_every_python_stepped_walk_reads_the_carried_rows():
    """``WalkCsr`` has two forms, the carried rows and ``lockstep``: no flat
    list mirrors of the CSR arrays, and no edge-id chain for GSA to read."""
    for gone in ("ip", "dg", "ix", "lat_l", "_build_lists"):
        assert not hasattr(kernels.WalkCsr, gone), gone
    assert not hasattr(kernels, "chain_steps")
    assert "chain_steps" not in kernels.__all__
    assert "CHUNK_STEPS" not in (SRC / "asap" / "delivery.py").read_text()


def test_ads_state_is_the_only_surface_of_the_cache():
    """No per-node wrapper object, and no merge path the product never runs."""
    for gone in ("RepositoryView", "CachedAd"):
        assert not hasattr(ads_state, gone) and gone not in ads_state.__all__
    assert not hasattr(AdsState, "accept_snapshot")
    algo = _small_asap()
    assert not hasattr(algo, "repos")
    n = algo.overlay.n
    per_node_objects = [
        name
        for name, value in vars(algo).items()
        if isinstance(value, (list, tuple, dict))
        and len(value) == n
        and not isinstance(next(iter(value), None), (int, float, str, type(None)))
    ]
    assert per_node_objects == []


def test_the_flood_relaxation_is_written_once():
    tree = ast.parse((SRC / "sim" / "kernels.py").read_text())
    relaxers = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "at"
            and getattr(call.func.value, "attr", None) == "minimum"
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        )
    ]
    assert relaxers == ["flood_frontier"]


def test_search_floods_have_one_multi_source_kernel(monkeypatch):
    """``flood_reach`` and ``FloodingSearch`` both reach ``flood_frontier``,
    which takes a list of sources; no per-source flood loop calls it."""
    from repro.search import flooding

    assert list(inspect.signature(kernels.flood_frontier).parameters) == [
        "csr", "sources", "ttl"
    ]
    seen = []
    real = kernels.flood_frontier

    def spy(csr, sources, ttl):
        seen.append(len(sources))
        return real(csr, sources, ttl)

    monkeypatch.setattr(kernels, "flood_frontier", spy)
    topo = random_topology(60, avg_degree=4.0, rng=np.random.default_rng(0))
    overlay = Overlay(topo, default_edge_latency_ms=10.0)
    flooding.flood_reach(overlay, 0, 6)
    search = flooding.FloodingSearch(overlay, ContentIndex(), BandwidthLedger())
    search.plan_queries([1.0, 2.0], [3, 4])
    search._flood(3, 1.0)
    assert seen == [1, 2]
    looped = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for loop in ast.walk(tree):
            if isinstance(loop, (ast.For, ast.While, ast.comprehension)):
                body = loop.body if not isinstance(loop, ast.comprehension) else []
                for stmt in body:
                    if _calls(stmt, "flood_frontier"):
                        looped.append(f"{path.relative_to(SRC)}:{loop.lineno}")
    assert looped == []


def test_ad_floods_have_one_bfs_kernel_and_one_caller():
    """Hop counts come from one bit-parallel pass, a single flood being a
    pass with one bit set; only ASAP(FLD)'s forwarder runs it."""
    assert not hasattr(kernels, "flood_bfs") and "flood_bfs" not in kernels.__all__
    floods = sorted(name for name in kernels.__all__ if name.startswith("flood"))
    assert floods == ["flood_frontier", "flood_receivers", "flood_words"]
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for owner in ast.walk(tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            for fn in owner.body:
                if isinstance(fn, ast.FunctionDef) and _calls(fn, "flood_words"):
                    callers.append(f"{path.relative_to(SRC)}:{owner.name}.{fn.name}")
        callers += [
            f"{path.relative_to(SRC)}:{fn.name}"
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and _calls(fn, "flood_words")
        ]
    assert callers == ["asap/delivery.py:FloodAdForwarder._flood"]


def test_src_has_no_live_status_view_and_no_thread():
    banned = re.compile(r"status_path|status_fn|--live|\bthreading\b")
    hits = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
    assert list(inspect.signature(Telemetry.__init__).parameters) == ["self"]
    assert "live" not in inspect.signature(run_cells).parameters


# ----------------------------------------- a source's filter is its column
def _imports(path):
    """``module`` or ``module.name`` of every import in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_src_has_no_per_filter_object():
    """``repro.bloom`` is the hasher, the matrix and the wire sizes: the
    one-object-per-filter classes are oracles (``tests/oracles/bloom.py``)."""
    classes, imports = [], []
    for path in sorted(SRC.rglob("*.py")):
        classes += [
            f"{path.relative_to(SRC)} {node.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name.endswith("BloomFilter")
        ]
        imports += [
            f"{path.relative_to(SRC)} {name}"
            for name in _imports(path)
            if name.startswith(("repro.bloom.filter", "repro.bloom.variable"))
        ]
    assert classes == [] and imports == []
    assert sorted(p.name for p in (SRC / "bloom").glob("*.py")) == [
        "__init__.py", "compressed.py", "hashing.py", "matrix.py",
    ]
    assert sorted(repro.bloom.__all__) == [
        "BloomHasher", "FilterMatrix", "PAPER_K", "PAPER_M",
        "compressed_filter_size", "optimal_bits", "patch_size",
    ]


def test_the_store_holds_no_per_source_filter_object():
    """A churned source costs its history columns and patch arrays, not a
    counting copy of its filter: state is the matrix, the index and arrays."""
    content = ContentIndex()
    content.register_document(Document(0, 0, ("a", "b")))
    content.place(1, 0, notify=False)
    store = SourceFilterStore(3, content)
    content.remove(1, 0, notify=False)
    assert store.apply_content_change(1, content.document(0), added=False)
    for gone in ("_counting", "_base_docs", "_cf"):
        assert not hasattr(store, gone), gone
    allowed = (int, np.ndarray, dict, type(store.hasher), type(store.matrix), ContentIndex)
    assert all(isinstance(value, allowed) for value in vars(store).values())
    held = [v for d in vars(store).values() if isinstance(d, dict) for v in d.values()]
    assert all(isinstance(value, (list, set)) for value in held)
    # (No file under src/ imports from tests: the oracle-imports guard above.)
    imported = _imports(SRC / "asap" / "store.py")
    assert not [name for name in imported if name.endswith("Filter")]


def _enclosing_functions(tree, predicate):
    """``name`` of the innermost function around each node ``predicate``
    accepts (``None`` at module level)."""
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    for node in ast.walk(tree):
        if predicate(node):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            yield max(around, key=lambda f: f.lineno).name if around else None


def test_the_keyword_hash_is_written_once():
    """The double-hashing formula (every ``% m``) and the BLAKE2b digest of
    a keyword are written once, in ``BloomHasher.positions_of``, called
    where ``rows`` adds terms to the keyword-position table that
    ``positions``, ``positions_array`` and the store read, and by the
    Bloom-length ablation for its members and probes -- no per-node union
    loop (``_shared_positions``, now ``tests/oracles/store.py``).
    The two other BLAKE2b calls digest JSON for ``repro.obs``
    fingerprints."""

    def mod_m(node):
        right = getattr(node, "right", None)
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and "m" in (getattr(right, "id", None), getattr(right, "attr", None))
        )

    def blake2b(node):
        return "blake2b" in (getattr(node, "id", None), getattr(node, "attr", None))

    formula, digests, loops, hashes = [], [], [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = path.relative_to(SRC).as_posix()
        formula += [f"{where}:{f}" for f in _enclosing_functions(tree, mod_m)]
        digests += [f"{where}:{f}" for f in _enclosing_functions(tree, blake2b)]
        loops += [where for _ in _calls(tree, "_shared_positions")]
        hashes += [where for _ in _calls(tree, "positions_of")]
    assert sorted(set(formula)) == ["bloom/hashing.py:positions_of"]
    assert sorted(digests) == [
        "bloom/hashing.py:positions_of", "obs/audit.py:fingerprint", "obs/telemetry.py:fingerprint",
    ]
    assert loops == [] and not hasattr(SourceFilterStore, "_shared_positions")
    assert hashes == [
        "bloom/hashing.py", "bloom/hashing.py",
        "experiments/ablations.py", "experiments/ablations.py",
    ]
    hashing = ast.parse(inspect.getsource(repro.bloom.BloomHasher))
    callers = {
        node.name: [c.func.attr for c in _calls(node, "positions_of")]
        for node in ast.walk(hashing)
        if isinstance(node, ast.FunctionDef) and _calls(node, "positions_of")
    }
    # ``rows`` hashes table rows; ``positions`` a term no document has.
    assert callers == {"rows": ["positions_of"], "positions": ["positions_of"]}


def test_names_with_no_caller_but_their_own_test_are_gone():
    assert not (SRC / "workload" / "serialize.py").exists()
    assert not hasattr(repro.workload, "serialize")
    for gone in ("save_trace", "load_trace"):
        assert gone not in repro.workload.__all__
    assert not hasattr(sim_metrics, "Counter")


# ------------------------------------------------ the paper's schemes only
def test_src_models_no_traffic_the_paper_does_not_measure():
    """No expanding-ring search (cited, never evaluated) and no keep-alive
    or download model (footnote 1 excludes both from load)."""
    gone = re.compile(
        r"ExpandingRingSearch|expanding_ring|flood_rings|KeepaliveTraffic"
        r"|DownloadModel|DownloadParams|model_keepalives|keepalive_period_s"
        r"|model_downloads|UNTRACED_CATEGORIES"
    )
    hits = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert hits == []
    assert [c.name for c in sim_metrics.TrafficCategory] == [
        "QUERY", "QUERY_RESPONSE", "FULL_AD", "PATCH_AD", "REFRESH_AD",
        "CONFIRMATION", "ADS_REQUEST", "ADS_REPLY",
    ]


def test_run_config_has_twelve_fields_and_warmup_has_no_default():
    settable = {f.name: f for f in dataclasses.fields(RunConfig) if f.init}
    assert sorted(settable) == sorted([
        "algorithm", "topology", "n_peers", "seed", "warmup_s",
        "use_physical_network", "edonkey", "trace", "rw_ttl",
        "gsa_budget", "asap", "probe_interval_s",
    ])
    warmup = settable["warmup_s"]
    assert warmup.default is dataclasses.MISSING
    assert warmup.default_factory is dataclasses.MISSING


def test_asap_params_holds_only_what_the_ablations_sweep_or_the_runner_sets():
    """``budget_unit``, ``ads_request_hops``, ``cache_capacity`` and
    ``refresh_period_s`` are swept by the ablations, ``forwarder`` is set by
    the runner; the paper's other constants are module constants."""
    assert [f.name for f in dataclasses.fields(AsapParams)] == [
        "forwarder", "budget_unit", "ads_request_hops", "refresh_period_s",
        "cache_capacity",
    ]


def test_content_index_notifies_nobody():
    """The runner tells the algorithm about a content change
    (``on_content_change``); the index keeps no listener list."""
    index = ContentIndex()
    assert not hasattr(index, "add_listener")
    assert "_listeners" not in vars(index)
    assert not hasattr(repro.workload.content, "ContentListener")


def test_content_is_columns_with_no_set_or_copy_on_write():
    """The dict-of-sets index (now ``tests/oracles/content.py``) and its
    copy-on-write fork are gone from ``repro.workload``: a synthesised index
    and a changed fork of it hold arrays, a vocabulary and scalars -- no
    set, no dict of sets, no ``Document`` objects."""
    gone = re.compile(r"\b(_writable|_shared|_kw_docs|_holders|_node_docs)\b")
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted((SRC / "workload").glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert hits == []
    dist = synthesize_content(EdonkeyParams(n_peers=60))
    fork = dist.index.fork()
    doc_id = int(fork.copies()[1][0])
    fork.remove(int(fork.nodes_holding([doc_id])[0]), doc_id)
    fork.place(59, doc_id)
    for index in (dist.index, fork):
        held = {**vars(index), **{f"_docs.{k}": v for k, v in vars(index._docs).items()}}
        for name, value in held.items():
            inner = list(value.values()) if isinstance(value, dict) else [value]
            assert not any(
                isinstance(v, (set, frozenset, Document)) for v in inner
            ), name


def test_kernels_define_no_generator_function():
    generators = [
        name for name, value in vars(kernels).items()
        if inspect.isgeneratorfunction(value)
    ]
    assert generators == []


# --------------------------------------------------------------------------
# One way to regenerate the evaluation (fails at the last commit that still
# had fourteen pytest wrappers, three env knobs and a grid that filled itself
# two ways).
REPO = SRC.parent.parent


def test_evaluation_has_no_pytest_wrappers_or_scale_knobs():
    benches = REPO / "benchmarks"
    wrappers = sorted(
        p.name for pat in ("bench_fig*", "bench_ablation*") for p in benches.glob(pat)
    )
    assert wrappers == []
    knob = re.compile("REPRO_BENCH_" + "(PEERS|QUERIES|SEED)")
    roots = [REPO / d for d in ("src", "benchmarks", "tests", "docs", "examples", ".github")]
    files = [p for root in roots for p in root.rglob("*") if p.is_file()]
    files += [REPO / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    hits = [
        str(p.relative_to(REPO))
        for p in files
        if p.suffix in (".py", ".md", ".yml", ".toml", ".json", ".txt", ".csv")
        and knob.search(p.read_text(errors="ignore"))
    ]
    assert hits == []


def test_src_calls_the_runner_in_one_place():
    """Every cell -- runall's, each seed of ``report run`` -- is replayed by
    ``run_cells``' worker body."""
    texts = {str(path.relative_to(SRC)): path.read_text() for path in SRC.rglob("*.py")}
    callers = {
        name: n
        for name, text in texts.items()
        if (n := text.count("run_experiment(") - text.count("def run_experiment("))
    }
    assert callers == {"experiments/parallel.py": 1}


def test_the_report_has_one_simulating_subcommand_and_no_seed_driver(capsys):
    import repro.simulation
    from repro.obs.report import main

    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out.splitlines()[0]
    assert re.search(r"\{(.*)\}", usage).group(1).split(",") == ["run", "diff", "analyze"]
    for gone in ("run_replications", "ReplicatedSummary"):
        assert not hasattr(repro.simulation, gone)
        assert not hasattr(repro.simulation.replication, gone)


def test_experiment_grid_has_no_process_wide_state():
    from repro.experiments import ExperimentGrid

    shared = {
        name
        for name, value in vars(ExperimentGrid).items()
        if isinstance(value, (dict, list, set, classmethod, staticmethod))
    }
    assert shared == set()


def test_design_index_lists_exactly_the_campaign_entries():
    from repro.experiments import ENTRIES

    design = (REPO / "DESIGN.md").read_text()
    index = design[design.index("## 4. Per-experiment index"):design.index("## 6. ")]
    listed = re.findall(r"^\| `([^`]+)` \|", index, flags=re.M)
    assert listed == [entry.name for entry in ENTRIES]


# --------------------------------------------- every module backs a claim
# ``src/repro`` holds only what the evaluation or the observability CLI
# reaches: a module only its own unit test imports cannot catch the
# simulator drifting.  (Fails at the last commit that shipped
# ``repro.analysis.models`` with flood/walk models no claim read and
# ``repro.workload.stats``.)
def _module_path(name):
    rel = Path(*name.split(".")[1:])
    for path in (SRC / rel.with_suffix(".py"), SRC / rel / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imported_module(module, name):
    """The module ``from module import name`` reaches: the submodule itself,
    the module a package's ``__init__`` re-exports ``name`` from, or
    ``module``."""
    if _module_path(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = _module_path(module)
    if path.name != "__init__.py":
        return module
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and name in (a.asname or a.name for a in node.names):
            return _imported_module(node.module, name)
    raise LookupError(f"{module} does not re-export {name}")


def _reached(roots):
    """Modules reached from ``roots`` by following imports (``__init__``
    bodies are resolved through, never walked)."""
    seen, todo = set(), list(roots)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for node in ast.walk(ast.parse(_module_path(module).read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                names = [_imported_module(node.module, a.name) for a in node.names]
            else:
                continue
            todo += [
                n for n in names
                if n.split(".")[0] == "repro" and _module_path(n).name != "__init__.py"
            ]
    return seen


def test_every_src_module_is_reached_from_runall_or_the_report():
    modules = {
        ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    reached = _reached(["repro.experiments.runall", "repro.obs.report"])
    assert sorted(modules - reached) == []
    assert reached <= modules


def test_analytic_models_and_workload_statistics_back_claims():
    import repro.analysis

    assert sorted(repro.analysis.__all__) == [
        "bloom_false_positive_rate", "expected_one_hop_rtt_ms",
    ]
    assert not (SRC / "workload" / "stats.py").exists()
    for gone in ("WorkloadStats", "compute_stats"):
        assert gone not in repro.workload.__all__


# ------------------------------------------------ no name exists for tests
# Every function, method and class in ``src/repro`` is referenced from
# ``src/repro`` itself, ``benchmarks/`` or ``examples/``: a name only tests
# reach checks nothing the simulator runs.  A reference is a ``Name``, an
# ``Attribute`` or an identifier string (``benchmarks/e2e/traced.py`` wraps
# methods by name); docstrings and ``__all__`` do not count.  (Fails at the
# last commit that shipped the scalar latency chain, ``runall.build_report``,
# ``probes.check_arena_health`` and fourteen other test-only names.)
ENTRY_POINTS = {
    # ROADMAP item 1's documented entry point for the paper-scale grid:
    # ``replace(ExperimentScale.paper(), jobs=2)`` from the Python API.
    "ExperimentScale.paper",
}


def _references(paths):
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if (
                isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                skipped.add(id(body[0].value))  # docstring
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skipped.update(id(sub) for sub in ast.walk(node.value))
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                names.add(node.value)
    return names


def _definitions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{prefix}{node.name}"
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def test_every_src_name_is_reached_outside_the_tests():
    sources = sorted(SRC.rglob("*.py"))
    callers = sources + [
        path for folder in ("benchmarks", "examples")
        for path in sorted((REPO / folder).rglob("*.py"))
    ]
    referenced = _references(callers)
    unreached = [
        f"{path.relative_to(SRC)}:{qualname}"
        for path in sources
        for name, qualname in _definitions(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in referenced
        and qualname not in ENTRY_POINTS
    ]
    assert unreached == []
    # The allow-list holds only names that would otherwise fail.
    assert not {name.rsplit(".", 1)[-1] for name in ENTRY_POINTS} & referenced
