"""Tests for the shared search interface and message-size model."""

import dataclasses
import math

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology
from repro.search.base import MessageSizes, SearchAlgorithm, SearchOutcome
from repro.sim.metrics import BandwidthLedger
from repro.workload.content import ContentIndex, Document


class TestMessageSizes:
    def test_defaults_positive(self):
        sizes = MessageSizes()
        assert sizes.query == 100
        assert sizes.ads_request == 60

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            MessageSizes(query=0)
        with pytest.raises(ValueError):
            MessageSizes(ad_header=-5)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MessageSizes)])
    def test_a_size_is_a_whole_number_of_bytes(self, field):
        """24.3 bytes cannot be sent: the bucket, ledger and ads-reply sums
        rely on whole sizes adding up to the same float in any order."""
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            MessageSizes(**{field: 24.3})
        assert getattr(MessageSizes(**{field: 24}), field) == 24
        assert getattr(MessageSizes(**{field: 24.0}), field) == 24


class TestSearchOutcome:
    def test_success_needs_finite_time(self):
        with pytest.raises(ValueError):
            SearchOutcome(
                success=True,
                response_time_ms=math.inf,
                messages=1,
                cost_bytes=1.0,
                results=1,
            )

    def test_failure_allows_inf(self):
        out = SearchOutcome(
            success=False,
            response_time_ms=math.inf,
            messages=3,
            cost_bytes=300.0,
            results=0,
        )
        assert not out.success

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            SearchOutcome(
                success=False,
                response_time_ms=math.inf,
                messages=-1,
                cost_bytes=0.0,
                results=0,
            )


def make_fixture():
    """A 4-node path: 0-1-2-3, node 3 holds the only matching doc."""
    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
    topo = OverlayTopology(name="path", n=4, edges=edges, physical_ids=np.arange(4))
    overlay = Overlay(topo, default_edge_latency_ms=10.0)
    content = ContentIndex()
    content.register_document(Document(doc_id=1, class_id=0, keywords=("rock", "live")))
    content.place(3, 1)
    return overlay, content, BandwidthLedger()


class _Dummy(SearchAlgorithm):
    name = "dummy"

    def search(self, requester, terms, now):  # pragma: no cover - unused
        raise NotImplementedError


class TestHelpers:
    def test_matching_live_nodes(self):
        overlay, content, ledger = make_fixture()
        algo = _Dummy(overlay, content, ledger)
        assert algo._matching_live_nodes(["rock"]) == {3}

    def test_matching_excludes_offline(self):
        overlay, content, ledger = make_fixture()
        overlay.leave(3)
        algo = _Dummy(overlay, content, ledger)
        assert algo._matching_live_nodes(["rock"]) == set()

    def test_matching_excludes_requester(self):
        overlay, content, ledger = make_fixture()
        algo = _Dummy(overlay, content, ledger)
        assert algo._matching_live_nodes(["rock"], exclude=3) == set()

    def test_local_hit(self):
        overlay, content, ledger = make_fixture()
        algo = _Dummy(overlay, content, ledger)
        assert algo._local_hit(3, ["rock"])
        assert not algo._local_hit(0, ["rock"])

    def test_local_outcome(self):
        out = SearchAlgorithm._local_outcome()
        assert out.success and out.local_hit
        assert out.response_time_ms == 0.0 and out.messages == 0

    def test_failure_outcome(self):
        out = SearchAlgorithm._failure(5, 500.0)
        assert not out.success
        assert out.messages == 5 and out.cost_bytes == 500.0
