"""Golden run fingerprints: behaviour frozen *across* commits.

The differential tests compare two in-tree arms; this one compares the
tree against ``tests/golden/run_fingerprints.json``, recorded once and
left byte-for-byte alone by every later simplification.  A mismatch means
the change moved dispatch order, an RNG draw or the ledger -- never "just
a refactor".

A run fingerprint is read two ways.  The ``fingerprints`` rows hash the
trace records one canonical JSON object at a time, as the streaming fold
in ``tests/oracles/trace_fold.py`` does: each is asserted on the records
the audited run's action tables render.  The ``table_fingerprints`` rows
are the audit's own fingerprint, blake2b over the tables' bytes, recorded
once beside them when the tables replaced the fold.

Fingerprints hash floats, so they are only comparable under the numpy
``major.minor`` that recorded them; the test skips otherwise.  After an
*intended* behaviour change (or a numpy upgrade) re-record with::

    PYTHONPATH=src python -m tests.test_golden_fingerprints
"""

import dataclasses
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy
import pytest

from repro.network.latency import LatencyModel
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams
from repro.obs.probes import state_fingerprint
from repro.obs.report import main as report_main
from repro.obs.telemetry import fingerprint
from repro.simulation.config import ALGORITHMS, scaled_config
from repro.simulation.runner import run_experiment
from repro.sim.random import RandomStreams
from repro.workload.edonkey import synthesize_content

from tests.oracles.hops import domain_hops
from tests.oracles.trace_fold import TraceFold, rendered_records
from tests.test_engine_batching_differential import small_config

GOLDEN_PATH = Path(__file__).parent / "golden" / "run_fingerprints.json"
SEEDS = (0, 1)


def _heavy_churn(config):
    n = config.trace.n_queries // 3
    return dataclasses.replace(
        config, trace=dataclasses.replace(config.trace, n_joins=n, n_leaves=n)
    )


def _bounded_cache(config, capacity=None):
    if capacity is None:
        capacity = config.n_peers // 10
    return dataclasses.replace(
        config, asap=dataclasses.replace(config.asap, cache_capacity=capacity)
    )


def _paper_ratio(algorithm, seed=0):
    """The paper's workload ratios on the 250-peer cell: 3 queries per peer
    and three times its content-change rate, so a cache row holds many
    behind entries at several versions of one source."""
    config = scaled_config(
        algorithm, "random", n_peers=250, n_queries=750, seed=seed,
        use_physical_network=False, warmup_s=40.0,
    )
    return dataclasses.replace(
        config,
        trace=dataclasses.replace(config.trace, content_change_fraction=0.30),
    )


def golden_configs():
    """``{row name: RunConfig}`` in recording order."""
    configs = {}
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            base = small_config(algorithm, seed)
            configs[f"{algorithm}/seed{seed}/default_churn"] = base
            configs[f"{algorithm}/seed{seed}/heavy_churn"] = _heavy_churn(base)
        if algorithm.startswith("asap"):
            configs[f"{algorithm}/seed0/default_churn/bounded_cache"] = (
                _bounded_cache(small_config(algorithm, 0))
            )
    # Cells otherwise checked only arm against arm (product vs
    # ``tests.oracles.oracle_arm``), recorded at the last commit whose
    # ``src/`` carried the reference arm itself, where both were asserted
    # equal: pinned so product and oracle cannot drift together.
    for algorithm in ("asap_fld", "asap_rw", "asap_gsa"):
        configs[f"{algorithm}/seed2/default_churn"] = small_config(algorithm, 2)
    for seed in SEEDS:
        # Capped-eviction tie-breaks: every accept can evict.
        configs[f"asap_rw/seed{seed}/default_churn/cache12"] = _bounded_cache(
            small_config("asap_rw", seed), capacity=12
        )
    configs["asap_sp_rw/seed0/default_churn"] = small_config("asap_sp_rw", 0)
    # Recorded at 930cac6, the last commit with the arena-row ads cache:
    # eviction interleaved with repairs and rejoin ads requests, aggregated
    # super-peer interests under eviction, and a patch-heavy trace (version
    # gaps, ``mark_behind``, repair pulls).
    for algorithm in ("asap_fld", "asap_rw", "asap_gsa"):
        configs[f"{algorithm}/seed0/heavy_churn/bounded_cache"] = _bounded_cache(
            _heavy_churn(small_config(algorithm, 0))
        )
    configs["asap_sp_fld/seed0/default_churn/bounded_cache"] = _bounded_cache(
        small_config("asap_sp_fld", 0)
    )
    base = small_config("asap_rw", 0)
    configs["asap_rw/seed0/default_churn/content_change_x3"] = dataclasses.replace(
        base, trace=dataclasses.replace(base.trace, content_change_fraction=0.30)
    )
    # The rows above all run on the flat-latency overlay; these four pin the
    # transit-stub / ``LatencyModel`` / per-edge-latency path end to end.
    # Recorded at dd64a2c, the last commit with set-of-sets stub graphs, the
    # scipy hop matrices and the per-node ``register`` loop.
    for algorithm in ("flooding", "random_walk", "asap_rw", "asap_fld"):
        configs[f"{algorithm}/seed0/physical_network"] = dataclasses.replace(
            small_config(algorithm, 0), use_physical_network=True
        )
    # Every row above runs one query per peer and at most 75 content changes,
    # where a lookup meets a few behind entries and a delivery one or two
    # lagging receivers.  Recorded at 975ab19, the last commit that replayed
    # a source's patch history per behind entry and repaired one receiver
    # per call.
    configs["asap_rw/seed0/paper_ratio"] = _paper_ratio("asap_rw")
    configs["asap_gsa/seed0/paper_ratio/bounded_cache"] = _bounded_cache(
        _paper_ratio("asap_gsa")
    )
    configs["asap_sp_rw/seed0/paper_ratio"] = _paper_ratio("asap_sp_rw")
    return configs


#: Nearly every G(8, 0.12) draw is disconnected, so this network freezes the
#: ``_connect_components`` branch the paper's parameters almost never take.
SPARSE_STUBS = TransitStubParams(stub_nodes_per_domain=8, p_stub_edge=0.12)
SUBSTRATES = {
    "paper/seed0": (None, 0),
    "paper/seed1": (None, 1),
    "paper/seed2": (None, 2),
    "sparse_stubs/seed0": (SPARSE_STUBS, 0),
}

#: The run fingerprints above freeze the trace; which peer, link and window
#: telemetry charges, and what the probes read from the caches, were pinned
#: only arm against arm (serial vs ``--jobs 2``).  These rows -- one per
#: algorithm and one per protocol regime -- freeze both across commits.
#: Recorded at a38191f, the last commit where every host module fed tracer
#: and telemetry separately; the ``content_change_x3`` telemetry row alone
#: was re-recorded one commit after the seam, when a repair that gets no
#: reply started to count (574 ``repairs`` instead of 570).  The
#: ``paper_ratio`` row joined at 975ab19 with its run fingerprint.  The
#: nine ASAP telemetry rows were re-recorded when a workload free rider
#: stopped keeping a refresh timer: its ticks sent nothing, so only
#: ``engine_events`` moved (1,257 -> 1,160 on ``asap_rw/seed0/default_churn``);
#: every byte, probe state and run fingerprint stayed.  All twelve rows were
#: re-recorded once more when telemetry became exact: hot peers and links
#: come from a table of every charge instead of Space-Saving trackers (which
#: had compacted on every row and named the wrong hottest peer on 7 of 12),
#: every quantile sketch became an exact ``digest``, and each window lost its
#: unfilled ``messages`` key.  Totals, every window's counters, bytes,
#: ``load_bytes`` and ``live_node_seconds``, and every probe scalar were
#: checked equal to the previous commit's before the rows were re-recorded.
OBS_ROWS = (
    "flooding/seed0/default_churn",
    "random_walk/seed0/default_churn",
    "gsa/seed0/default_churn",
    "asap_fld/seed0/default_churn",
    "asap_rw/seed0/default_churn",
    "asap_gsa/seed0/default_churn",
    "asap_rw/seed0/heavy_churn",
    "asap_rw/seed0/default_churn/bounded_cache",
    "asap_rw/seed0/default_churn/content_change_x3",
    "asap_sp_rw/seed0/default_churn",
    "asap_rw/seed0/physical_network",
    "asap_rw/seed0/paper_ratio",
)


def obs_fingerprints(config):
    """Telemetry and probe-state identity of one telemetry + probes run."""
    result = run_experiment(config, telemetry=True, probes=True)
    return {
        "telemetry": fingerprint(result.telemetry),
        "probes": state_fingerprint(result.probes),
    }


#: The rows above pin single cells; this ``report run`` pins the input-order
#: list of two seeds' telemetry and probe documents (``--jobs 2``), whose
#: ``run.json`` sections it digests whole, labels and backend included.
#: Recorded at a139b44, the last commit with a summary class per observer;
#: re-recorded with the ASAP telemetry rows above, when free riders' empty
#: refresh ticks left the engine (``engine_events`` and the probes' backend
#: engine gauges moved, nothing else), and again with all the rows above,
#: when the sections stopped adding up the two seeds' documents and became
#: the list of them.
MERGED_RUN = (
    "run", "--telemetry", "--probes", "--probe-interval", "5",
    "--peers", "60", "--queries", "30", "--replications", "2", "--jobs", "2",
    "--no-physical-network",
)


def merged_obs_fingerprints(out_dir):
    """Fingerprints of ``MERGED_RUN``'s ``telemetry`` and ``state`` sections."""
    assert report_main([*MERGED_RUN, "--out", str(out_dir)]) == 0
    doc = json.loads((Path(out_dir) / "run.json").read_text())
    return {"telemetry": fingerprint(doc["telemetry"]), "state": fingerprint(doc["state"])}


def substrate_digest(params, seed):
    """blake2b over what the physical substrate hands the overlay: stub
    graphs (gateway + all-pairs ``stub_hops`` of the first 64 domains), the latency
    model's registered offsets/anchors, and batch and scalar latencies over
    a fixed pair sample with same-domain, unregistered and ``u == v`` pairs."""
    net = TransitStubNetwork(params, seed=seed)
    latency = LatencyModel(net)
    p = net.params
    digest = hashlib.blake2b(digest_size=16)

    def feed(values, dtype):
        digest.update(numpy.ascontiguousarray(values, dtype=dtype).tobytes())

    for domain_id in range(64):
        gateway, hops = domain_hops(net, domain_id)
        feed([gateway], numpy.int64)
        feed(hops, numpy.int64)
    rng = numpy.random.default_rng(20070910)
    nodes = numpy.concatenate(
        [numpy.arange(4), rng.choice(numpy.arange(4, p.n_nodes), 496, replace=False)]
    )
    latency.register(nodes)
    feed(latency._offset_ms[nodes], numpy.float64)
    feed(latency._anchor[nodes], numpy.int64)
    feed(latency._domain[nodes], numpy.int64)
    us, vs = nodes[rng.integers(len(nodes), size=(2, 3000))]
    size = p.stub_nodes_per_domain
    first = p.n_transit + size * rng.integers(p.n_stub_domains, size=400)
    same_u = first + rng.integers(size, size=400)
    same_v = first + rng.integers(size, size=400)
    feed(
        latency.pairwise_ms(
            numpy.concatenate([us, same_u]), numpy.concatenate([vs, same_v])
        ),
        numpy.float64,
    )
    scalar_pairs = list(zip(us[:60], vs[:60])) + list(zip(same_u[:60], same_v[:60]))
    feed([latency.pairwise_ms(u, v) for u, v in scalar_pairs], numpy.float64)
    return digest.hexdigest()


#: Synthesised workloads, pinned in a canonical sorted rendering.  Until
#: the index became int32 columns the digest hashed its dicts and sets in
#: their iteration order, which no longer exist; the canonical rendering,
#: computed at the parent from the dict form, was equal for every entry
#: below, and the digests were re-recorded once, over it.
CONTENTS = {
    f"{n_peers}/seed{seed}": (n_peers, seed)
    for n_peers in (1000, 2000)
    for seed in SEEDS
}


def content_digest(n_peers, seed):
    """blake2b over a seed's ``ContentDistribution`` as ``run_experiment``
    synthesises it, read through the index's public queries in sorted
    order: every document (id, class, keywords), each keyword's documents,
    each document's holders and each sharer's documents, the interests
    and free-riders, and the content stream's final state."""
    config = scaled_config("asap_rw", "crawled", n_peers=n_peers, seed=seed)
    rng = RandomStreams(seed).get("content")
    dist = synthesize_content(config.edonkey, rng)
    index = dist.index
    documents = sorted(index.all_documents(), key=lambda d: d.doc_id)
    keywords = sorted({kw for d in documents for kw in d.keywords})

    def ids(values):
        return sorted(int(v) for v in values)

    digest = hashlib.blake2b(digest_size=16)
    for section in (
        [[d.doc_id, d.class_id, d.keywords] for d in documents],
        [[kw, ids(index.docs_matching([kw]))] for kw in keywords],
        [[d.doc_id, ids(index.holders(d.doc_id))] for d in documents],
        [[n, ids(index.docs_of(n))] for n in range(n_peers) if len(index.docs_of(n))],
        [sorted(classes) for classes in dist.interests],
        dist.free_rider.tolist(),
        dist.next_doc_id,
        rng.bit_generator.state,
    ):
        digest.update(json.dumps(section).encode())
    return digest.hexdigest()


def _major_minor(version):
    return version.split(".")[:2]


CONFIGS = golden_configs()


@functools.cache
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_matrix():
    assert sorted(_golden()["fingerprints"]) == sorted(CONFIGS)


@functools.lru_cache(maxsize=None)
def run_fingerprints(name):
    """``(record fingerprint, table fingerprint)`` of row ``name``'s
    audited run: the fold fed the rendered records, and the audit's own."""
    result = run_experiment(CONFIGS[name], audit=True)
    fold = TraceFold(records=rendered_records(result.actions))
    return fold.fingerprint(result), result.fingerprint


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_fingerprint_matches_golden(name):
    recorded = _golden()["numpy_version"]
    if _major_minor(recorded) != _major_minor(numpy.__version__):
        pytest.skip(
            f"golden fingerprints recorded under numpy {recorded}, "
            f"running {numpy.__version__}"
        )
    assert run_fingerprints(name)[0] == _golden()["fingerprints"][name]


def test_golden_file_covers_the_table_fingerprints():
    assert sorted(_golden()["table_fingerprints"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_table_fingerprint_matches_golden(name):
    recorded = _golden()["numpy_version"]
    if _major_minor(recorded) != _major_minor(numpy.__version__):
        pytest.skip(
            f"golden fingerprints recorded under numpy {recorded}, "
            f"running {numpy.__version__}"
        )
    assert run_fingerprints(name)[1] == _golden()["table_fingerprints"][name]


def test_golden_file_covers_the_obs_rows():
    assert sorted(_golden()["obs_fingerprints"]) == sorted(OBS_ROWS)
    assert set(OBS_ROWS) <= set(CONFIGS)


@pytest.mark.parametrize("name", OBS_ROWS)
def test_obs_fingerprints_match_golden(name):
    recorded = _golden()["numpy_version"]
    if _major_minor(recorded) != _major_minor(numpy.__version__):
        pytest.skip(
            f"golden fingerprints recorded under numpy {recorded}, "
            f"running {numpy.__version__}"
        )
    assert obs_fingerprints(CONFIGS[name]) == _golden()["obs_fingerprints"][name]


def test_merged_obs_fingerprints_match_golden(tmp_path, capsys):
    recorded = _golden()["numpy_version"]
    if _major_minor(recorded) != _major_minor(numpy.__version__):
        pytest.skip(
            f"golden fingerprints recorded under numpy {recorded}, "
            f"running {numpy.__version__}"
        )
    assert merged_obs_fingerprints(tmp_path) == _golden()["merged_obs_fingerprints"]
    capsys.readouterr()


def test_golden_file_covers_the_substrates():
    assert sorted(_golden()["substrate_digests"]) == sorted(SUBSTRATES)


@pytest.mark.parametrize("name", list(SUBSTRATES))
def test_substrate_digest_matches_golden(name):
    recorded = _golden()["numpy_version"]
    if _major_minor(recorded) != _major_minor(numpy.__version__):
        pytest.skip(
            f"golden digests recorded under numpy {recorded}, "
            f"running {numpy.__version__}"
        )
    assert substrate_digest(*SUBSTRATES[name]) == _golden()["substrate_digests"][name]


def test_golden_file_covers_the_contents():
    assert sorted(_golden()["content_digests"]) == sorted(CONTENTS)


@pytest.mark.parametrize("name", list(CONTENTS))
def test_content_digest_matches_golden(name):
    recorded = _golden()["numpy_version"]
    if _major_minor(recorded) != _major_minor(numpy.__version__):
        pytest.skip(
            f"golden digests recorded under numpy {recorded}, "
            f"running {numpy.__version__}"
        )
    assert content_digest(*CONTENTS[name]) == _golden()["content_digests"][name]


if __name__ == "__main__":
    payload = {
        "numpy_version": numpy.__version__,
        "fingerprints": {name: run_fingerprints(name)[0] for name in CONFIGS},
        "substrate_digests": {
            name: substrate_digest(*args) for name, args in SUBSTRATES.items()
        },
        "obs_fingerprints": {
            name: obs_fingerprints(CONFIGS[name]) for name in OBS_ROWS
        },
    }
    with tempfile.TemporaryDirectory() as out_dir:
        payload["merged_obs_fingerprints"] = merged_obs_fingerprints(out_dir)
    payload["content_digests"] = {
        name: content_digest(*args) for name, args in CONTENTS.items()
    }
    payload["table_fingerprints"] = {name: run_fingerprints(name)[1] for name in CONFIGS}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(
        f"recorded {len(payload['fingerprints'])} fingerprints, "
        f"{len(payload['substrate_digests'])} substrate digests, "
        f"{len(payload['content_digests'])} content digests and "
        f"{len(payload['obs_fingerprints'])} telemetry / probe rows to {GOLDEN_PATH}"
    )
