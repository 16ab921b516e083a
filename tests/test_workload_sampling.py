"""Differential tests: ``repro.workload.sampling`` against numpy itself.

``draw_distinct`` / ``draw_one`` promise to be ``Generator.choice`` draw for
draw: the same indices *and* the same generator state afterwards, so every
seeded workload is what it was when synthesis called ``choice`` directly.
The oracle here is the installed numpy, whatever its version -- unlike the
golden fingerprints these tests are never skipped, so a numpy release that
changes ``choice`` fails here, by name.
"""

import numpy as np
import pytest

from repro.workload.edonkey import make_document
from repro.workload.generator import _zipf_index
from repro.workload.interests import CLASS_WEIGHTS, N_CLASSES
from repro.workload.sampling import (
    draw_distinct,
    draw_one,
    table,
    zipf_table,
)

SEEDS = range(6)


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


def _heavy_head(n):
    """One entry holds 0.9 of the mass: nearly every draw collides."""
    w = np.full(n, 0.1 / (n - 1))
    w[2] = 0.9
    return w


WEIGHTS = {
    "zipf300": np.arange(1, 301, dtype=np.float64) ** -1.1,
    "classes": CLASS_WEIGHTS,
    "heavy_head": _heavy_head(9),
    "uniform": np.ones(7),
    "with_zeros": np.array([0.0, 3.0, 0.0, 1.0, 1.0, 0.0, 5.0]),
    "single": np.array([2.5]),
}


@pytest.mark.parametrize("name", list(WEIGHTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_distinct_is_choice_without_replacement(name, seed):
    """Every size 0..n (n = entries with mass), several draws per generator
    so each call also starts from a state numpy left behind."""
    dist = table(WEIGHTS[name])
    ours, numpys = _pair(seed)
    for size in list(range(dist.support + 1)) * 3:
        got = draw_distinct(ours, dist, size)
        expected = numpys.choice(len(dist.p), size=size, replace=False, p=dist.p)
        assert got == expected.tolist()
        assert _same_state(ours, numpys)


@pytest.mark.parametrize("seed", SEEDS)
def test_collision_heavy_full_draw_takes_many_redraw_rounds(seed):
    """``size == n`` from a 0.9-mass head: the zero-and-renormalise loop
    runs several rounds and still lands on numpy's permutation."""

    class CountingRng:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def random(self, size):
            self.calls += 1
            return self.rng.random(size)

    dist = table(_heavy_head(9))
    ours, numpys = _pair(seed)
    counting = CountingRng(ours)
    got = draw_distinct(counting, dist, 9)
    assert counting.calls >= 3
    assert sorted(got) == list(range(9))
    assert got == numpys.choice(9, size=9, replace=False, p=dist.p).tolist()
    assert _same_state(ours, numpys)


@pytest.mark.parametrize("name", list(WEIGHTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_one_is_scalar_choice(name, seed):
    dist = table(WEIGHTS[name])
    ours, numpys = _pair(seed)
    for _ in range(50):
        assert draw_one(ours, dist) == numpys.choice(len(dist.p), p=dist.p)
        assert _same_state(ours, numpys)


def test_draw_distinct_rejects_what_choice_rejects():
    rng = np.random.default_rng(0)
    dist = table(WEIGHTS["with_zeros"])
    for size in (-1, dist.support + 1, len(dist.p)):
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            draw_distinct(rng, dist, size)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(
                len(dist.p), size=size, replace=False, p=dist.p
            )
        assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "weights",
    [[], [0.0, 0.0], [1.0, -0.5], [1.0, np.nan], [1.0, np.inf], [[0.5, 0.5]]],
)
def test_table_rejects_malformed_weights(weights):
    with pytest.raises(ValueError, match="weights"):
        table(weights)


def test_tables_are_read_only():
    """Tables are built per call (their callers keep them), read-only."""
    dist = zipf_table(300, 1.1)
    assert zipf_table(300, 1.1) is not dist
    assert zipf_table(300, 1.1).cdf.tolist() == dist.cdf.tolist()
    for array in (dist.p, dist.cdf):
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert dist.cdf[-1] == 1.0 and dist.support == 300


# ------------------------------------------------------------- call sites
def _choice_make_document(doc_id, vocab, rng, min_kw, max_kw, zipf_s):
    """``make_document`` as it was written against ``Generator.choice``."""
    n_kw = int(rng.integers(min_kw, max_kw + 1))
    v = len(vocab)
    weights = np.arange(1, v + 1, dtype=np.float64) ** -zipf_s
    weights /= weights.sum()
    idx = rng.choice(v, size=min(n_kw, v), replace=False, p=weights)
    return (f"title{doc_id}",) + tuple(vocab[i] for i in sorted(idx))


@pytest.mark.parametrize("vocab_size,zipf_s", [(300, 1.1), (4, 1.1), (3, 2.5), (40, 0.0)])
@pytest.mark.parametrize("seed", SEEDS)
def test_make_document_draws_like_choice(vocab_size, zipf_s, seed):
    vocab = [f"kw{i}" for i in range(vocab_size)]
    ours, numpys = _pair(seed)
    for doc_id in range(200):
        doc = make_document(doc_id, 3, vocab, ours, min_kw=2, max_kw=5, zipf_s=zipf_s)
        assert doc.keywords == _choice_make_document(
            doc_id, vocab, numpys, 2, 5, zipf_s
        )
        assert _same_state(ours, numpys)


@pytest.mark.parametrize("seed", SEEDS)
def test_zipf_index_draws_like_choice(seed):
    ours, numpys = _pair(seed)
    tables = {}  # one generate_trace call's
    for n in (1, 2, 17, 1, 900, 17):
        for _ in range(20):
            got = _zipf_index(ours, n, 0.7, tables)
            if n == 1:
                assert got == 0  # no draw at all
            else:
                w = np.arange(1, n + 1, dtype=np.float64) ** -0.7
                assert got == numpys.choice(n, p=w / w.sum())
            assert _same_state(ours, numpys)


@pytest.mark.parametrize(
    "weights", [None, np.arange(1.0, N_CLASSES + 1), _heavy_head(N_CLASSES)]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_classes_draws_like_choice(weights, seed):
    w = CLASS_WEIGHTS if weights is None else weights
    ours, numpys = _pair(seed)
    for n in list(range(N_CLASSES + 1)) * 2:
        got = draw_distinct(ours, table(w), n)
        expected = numpys.choice(len(w), size=n, replace=False, p=w / w.sum())
        assert got == expected.tolist()
        assert _same_state(ours, numpys)
