"""Tests for the hierarchical latency model."""

import numpy as np
import pytest

from repro.network.latency import LatencyModel
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams


@pytest.fixture(scope="module")
def net():
    params = TransitStubParams(
        n_transit_domains=3,
        transit_nodes_per_domain=4,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=8,
    )
    return TransitStubNetwork(params, seed=3)


@pytest.fixture(scope="module")
def model(net):
    return LatencyModel(net)


def _gateway_ms(net, node):
    """Latency from a stub node to its domain's gateway."""
    domain, local = net.stub_coordinates(np.array([node]))
    return float(net.gateway_hops(domain, local)[0]) * net.params.lat_intra_stub_ms


def _intra_ms(net, u, v):
    """Latency between two stub nodes of one domain, inside the domain."""
    domain, local_u = net.stub_coordinates(np.array([u]))
    _, local_v = net.stub_coordinates(np.array([v]))
    hops = net.stub_hops(domain, local_u, local_v)[0]
    return float(hops) * net.params.lat_intra_stub_ms


class TestScalar:
    """Single pairs: 0-d ids give a 0-d result."""

    def test_self_latency_zero(self, model, net):
        assert float(model.pairwise_ms(0, 0)) == 0.0
        stub = net.params.n_transit + 1
        assert float(model.pairwise_ms(stub, stub)) == 0.0

    def test_symmetric(self, model, net):
        p = net.params
        pairs = [(0, 5), (p.n_transit, p.n_transit + 20), (3, p.n_transit + 9)]
        for u, v in pairs:
            assert model.pairwise_ms(u, v) == pytest.approx(model.pairwise_ms(v, u))

    def test_transit_to_transit_matches_core(self, model, net):
        core = net.transit_core_distances()
        assert float(model.pairwise_ms(1, 9)) == pytest.approx(core[1, 9])

    def test_same_domain_uses_intra_path(self, model, net):
        p = net.params
        u = p.n_transit
        v = p.n_transit + 3
        assert float(model.pairwise_ms(u, v)) == pytest.approx(
            _intra_ms(net, u, v)
        )

    def test_same_domain_never_worse_than_gateway_detour(self, model, net):
        p = net.params
        first = p.n_transit
        for v in range(first + 1, first + p.stub_nodes_per_domain):
            intra = float(model.pairwise_ms(first, v))
            detour = (
                _gateway_ms(net, first)
                + _gateway_ms(net, v)
                + 2 * p.lat_transit_stub_ms
            )
            assert intra <= detour + 1e-9

    def test_cross_domain_decomposition(self, model, net):
        p = net.params
        u = p.n_transit + 2  # domain 0, anchored at transit 0
        v = p.n_transit + p.stub_nodes_per_domain * 2 + 5  # domain 2, transit 1
        core = net.transit_core_distances()
        expected = (
            _gateway_ms(net, u)
            + p.lat_transit_stub_ms
            + core[0, 1]
            + p.lat_transit_stub_ms
            + _gateway_ms(net, v)
        )
        assert float(model.pairwise_ms(u, v)) == pytest.approx(expected)

    def test_stub_to_transit(self, model, net):
        p = net.params
        u = p.n_transit + 4  # domain 0 -> anchor transit 0
        core = net.transit_core_distances()
        expected = _gateway_ms(net, u) + p.lat_transit_stub_ms + core[0, 7]
        assert float(model.pairwise_ms(u, 7)) == pytest.approx(expected)

    def test_sibling_domains_share_anchor(self, model, net):
        """Domains 0 and 1 hang off transit 0: core segment collapses to 0."""
        p = net.params
        u = p.n_transit + 1
        v = p.n_transit + p.stub_nodes_per_domain + 1
        expected = (
            _gateway_ms(net, u)
            + _gateway_ms(net, v)
            + 2 * p.lat_transit_stub_ms
        )
        assert float(model.pairwise_ms(u, v)) == pytest.approx(expected)


class TestVectorised:
    def test_pairwise_matches_scalar(self, model, net):
        rng = np.random.default_rng(5)
        us = rng.integers(0, net.n_nodes, size=100)
        vs = rng.integers(0, net.n_nodes, size=100)
        batch = model.pairwise_ms(us, vs)
        for i in range(100):
            assert batch[i] == model.pairwise_ms(int(us[i]), int(vs[i]))

    def test_pairwise_shape_mismatch(self, model):
        with pytest.raises(ValueError):
            model.pairwise_ms(np.array([0, 1]), np.array([0]))

    def test_one_to_many(self, model, net):
        vs = np.array([0, 5, net.params.n_transit + 3])
        out = model.pairwise_ms(np.full(len(vs), 2), vs)
        for i, v in enumerate(vs):
            assert out[i] == pytest.approx(float(model.pairwise_ms(2, int(v))))

    def test_register_idempotent(self, net):
        model = LatencyModel(net)
        model.register([0, net.params.n_transit])
        model.register([0, net.params.n_transit])  # second call is a no-op
        assert float(model.pairwise_ms(0, net.params.n_transit)) > 0

    def test_register_takes_any_iterable_and_rejects_bad_ids(self, net):
        model = LatencyModel(net)
        stub = net.params.n_transit
        model.register(node for node in (stub + 3, 1, stub + 3))
        model.register({stub + 9, 2})
        fresh = LatencyModel(net).pairwise_ms(1, stub + 3)
        assert model.pairwise_ms(1, stub + 3) == fresh
        for bad in (-1, net.n_nodes):
            with pytest.raises(ValueError):
                model.register([0, bad])

    def test_same_domain_pairs_in_2d_batches(self, net):
        """The same-domain branch is a gather, so it follows any shape."""
        p = net.params
        first = p.n_transit + 2 * p.stub_nodes_per_domain
        locals_ = np.arange(p.stub_nodes_per_domain)
        us, vs = np.meshgrid(first + locals_, first + locals_, indexing="ij")
        got = LatencyModel(net).pairwise_ms(us, vs)
        assert got.shape == us.shape
        for i in locals_:
            for j in locals_:
                assert got[i, j] == _intra_ms(net, first + i, first + j)

    def test_scalar_ids_give_a_0d_result(self, model, net):
        stub = net.params.n_transit + 3
        got = model.pairwise_ms(1, stub)
        assert got.shape == ()
        assert got == model.pairwise_ms([1], [stub])[0]

    def test_all_latencies_nonnegative(self, model, net):
        rng = np.random.default_rng(11)
        us = rng.integers(0, net.n_nodes, size=500)
        vs = rng.integers(0, net.n_nodes, size=500)
        assert np.all(model.pairwise_ms(us, vs) >= 0)


class TestPaperScale:
    def test_lazy_registration_touches_few_domains(self):
        net = TransitStubNetwork(seed=0)  # paper scale, lazy
        model = LatencyModel(net)
        rng = np.random.default_rng(1)
        nodes = rng.choice(net.n_nodes, size=50, replace=False)
        model.register(nodes)
        lat = model.pairwise_ms(nodes[:25], nodes[25:])
        assert np.all(np.isfinite(lat))
        assert np.all(lat >= 0)
        # Only the touched domains were materialised.
        stub = nodes[nodes >= net.params.n_transit]
        touched = np.unique(net.stub_coordinates(stub)[0])
        assert 0 < len(touched) <= 50
        assert np.array_equal(np.flatnonzero(net._gateway >= 0), touched)
