"""Tests for the shared search interface and message-size model."""

import math

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology
from repro.search import base
from repro.search.base import SearchAlgorithm, SearchOutcome
from repro.sim.metrics import BandwidthLedger
from repro.workload.content import ContentIndex, Document


MESSAGE_TYPES = (
    "query", "query_response", "confirmation_request", "confirmation_reply",
    "ads_request", "ad_header",
)


class TestMessageSizes:
    def test_defaults_positive(self):
        """The DESIGN.md section 2 table."""
        sizes = {name: getattr(base, f"{name.upper()}_BYTES") for name in MESSAGE_TYPES}
        assert sizes == {
            "query": 100, "query_response": 80, "confirmation_request": 80,
            "confirmation_reply": 80, "ads_request": 60, "ad_header": 24,
        }

    @pytest.mark.parametrize("field", MESSAGE_TYPES)
    def test_a_size_is_a_whole_number_of_bytes(self, field):
        """24.3 bytes cannot be sent: the bucket, ledger and ads-reply sums
        rely on whole sizes adding up to the same float in any order."""
        size = getattr(base, f"{field.upper()}_BYTES")
        assert type(size) is int and size > 0


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
        holders = content.nodes_matching(["rock"])
        assert algo._matching_live_nodes(holders).tolist() == [3]

    def test_matching_excludes_offline(self):
        overlay, content, ledger = make_fixture()
        overlay.leave(3)
        algo = _Dummy(overlay, content, ledger)
        assert algo._matching_live_nodes(content.nodes_matching(["rock"])).tolist() == []

    def test_matching_excludes_requester(self):
        overlay, content, ledger = make_fixture()
        algo = _Dummy(overlay, content, ledger)
        holders = content.nodes_matching(["rock"])
        assert algo._matching_live_nodes(holders, exclude=3).tolist() == []

    def test_local_hit(self):
        overlay, content, ledger = make_fixture()
        algo = _Dummy(overlay, content, ledger)
        holders = content.nodes_matching(["rock"])
        assert algo._local_hit(3, holders)
        assert not algo._local_hit(0, holders)

    def test_local_outcome(self):
        out = SearchAlgorithm._local_outcome()
        assert out.success and out.local_hit
        assert out.response_time_ms == 0.0 and out.messages == 0

    def test_failure_outcome(self):
        out = SearchAlgorithm._failure(5, 500.0)
        assert not out.success
        assert out.messages == 5 and out.cost_bytes == 500.0
