"""Tests for the GT-ITM transit-stub physical network model."""

import numpy as np
import pytest

from repro.network import transit_stub
from repro.network.latency import LatencyModel
from repro.network.transit_stub import (
    UNREACHABLE,
    TransitStubNetwork,
    TransitStubParams,
    _bfs,
    _random_graphs,
)

from tests.oracles.hops import core_distances_reference, domain_hops, hop_matrix_reference


@pytest.fixture(scope="module")
def small_net():
    """A scaled-down network so tests stay fast: 3x4 transit, 2x5 stubs."""
    params = TransitStubParams(
        n_transit_domains=3,
        transit_nodes_per_domain=4,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=5,
    )
    return TransitStubNetwork(params, seed=1)


@pytest.fixture(scope="module")
def paper_net():
    """The paper-scale network (construction is lazy, so this is cheap)."""
    return TransitStubNetwork(seed=0)


class TestParams:
    def test_paper_defaults_give_51984_nodes(self):
        p = TransitStubParams()
        assert p.n_transit == 144
        assert p.n_stub_domains == 1296
        assert p.n_stub == 51840
        assert p.n_nodes == 51984

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TransitStubParams(n_transit_domains=0)
        with pytest.raises(ValueError):
            TransitStubParams(p_stub_edge=1.5)
        with pytest.raises(ValueError):
            TransitStubParams(stub_nodes_per_domain=0)


def _all_pairs(adjacency):
    """All-pairs hop counts of one graph: :func:`_bfs` from every node."""
    n = len(adjacency)
    return _bfs(np.broadcast_to(adjacency, (n, n, n)), np.arange(n))


def _random_graph(n, p, rng):
    """One forced-connected G(n, p) and its all-pairs hop counts."""
    adjacency = _random_graphs(n, p, [rng])[0]
    return adjacency, _all_pairs(adjacency)


class TestIdScheme:
    def test_transit_detection(self, small_net):
        """Transit ids anchor at themselves with no offset; stub ids belong
        to a stub domain."""
        p = small_net.params
        model = LatencyModel(small_net)
        nodes = np.array([0, p.n_transit - 1, p.n_transit])
        model.register(nodes)
        assert model._anchor[nodes[:2]].tolist() == [0, p.n_transit - 1]
        assert model._offset_ms[nodes[:2]].tolist() == [0.0, 0.0]
        assert model._domain[nodes].tolist() == [-1, -1, 0]

    def test_stub_domain_of(self, small_net):
        p = small_net.params
        first_stub = p.n_transit
        last = p.n_nodes - 1
        nodes = np.array([first_stub, first_stub + p.stub_nodes_per_domain, last])
        domain, local = small_net.stub_coordinates(nodes)
        assert domain.tolist() == [0, 1, p.n_stub_domains - 1]
        assert local.tolist() == [0, 0, p.stub_nodes_per_domain - 1]

    def test_stub_domain_of_transit_raises(self, small_net):
        domain, local = small_net.stub_coordinates(np.array([0]))
        with pytest.raises(ValueError):
            small_net.gateway_hops(domain, local)

    def test_transit_anchor_of_transit_is_itself(self, small_net):
        model = LatencyModel(small_net)
        model.register([3])
        assert model._anchor[3] == 3

    def test_transit_anchor_of_stub(self, small_net):
        p = small_net.params
        # stub domain 0 and 1 hang off transit node 0; domains 2,3 off node 1.
        node_in_domain_2 = p.n_transit + 2 * p.stub_nodes_per_domain
        model = LatencyModel(small_net)
        model.register([node_in_domain_2])
        assert model._anchor[node_in_domain_2] == 1

    def test_out_of_range_rejected(self, small_net):
        model = LatencyModel(small_net)
        for bad in (small_net.n_nodes, -1):
            with pytest.raises(ValueError):
                model.register([bad])


class TestTransitCore:
    def test_distances_symmetric_finite(self, small_net):
        dist = small_net.transit_core_distances()
        n = small_net.params.n_transit
        assert dist.shape == (n, n)
        assert np.all(np.isfinite(dist))  # core must be connected
        assert np.allclose(dist, dist.T)
        assert np.all(np.diag(dist) == 0)

    def test_triangle_inequality_sampled(self, small_net):
        dist = small_net.transit_core_distances()
        n = dist.shape[0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, k = rng.integers(0, n, size=3)
            assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9

    def test_intra_domain_cheaper_than_inter(self, small_net):
        dist = small_net.transit_core_distances()
        p = small_net.params
        intra = dist[0, 1 : p.transit_nodes_per_domain]
        inter = dist[0, p.transit_nodes_per_domain :]
        # Crossing domains costs at least one 50ms link.
        assert inter.min() >= p.lat_inter_transit_ms
        assert intra.max() < inter.min() + p.lat_intra_transit_ms * p.transit_nodes_per_domain

    def test_paper_scale_core(self, paper_net):
        dist = paper_net.transit_core_distances()
        assert dist.shape == (144, 144)
        assert np.all(np.isfinite(dist))


class TestCoreDistancesAgainstDijkstra:
    """The core's Floyd-Warshall equals csr + Dijkstra bit for bit: with
    latencies that are whole numbers of ms every partial sum is exact."""

    @staticmethod
    def _same(params, seed=0):
        net = TransitStubNetwork(params, seed=seed)
        dist = net.transit_core_distances()
        assert np.array_equal(dist, core_distances_reference(net))
        return net, dist

    @pytest.mark.parametrize("seed", range(5))
    def test_paper_parameters(self, seed):
        self._same(TransitStubParams(), seed)

    @pytest.mark.parametrize("p_edge", [0.0, 1.0])
    def test_edge_probability_extremes(self, p_edge):
        """``0.0`` leaves each domain the bridging edges that connect it,
        ``1.0`` makes it a clique (every intra-domain distance one link)."""
        params = TransitStubParams(p_transit_edge=p_edge)
        net, dist = self._same(params)
        if p_edge == 1.0:
            per = params.transit_nodes_per_domain
            block = dist[:per, :per]
            assert (block[~np.eye(per, dtype=bool)] == params.lat_intra_transit_ms).all()

    def test_unreachable_pairs_are_inf(self):
        """Without the inter-domain links the domains are islands: both
        answer ``inf`` across them and the same sums within."""
        net = TransitStubNetwork(TransitStubParams(p_transit_edge=0.0), seed=0)
        per = net.params.transit_nodes_per_domain
        net._transit_edges = [e for e in net._transit_edges if e[0] // per == e[1] // per]
        dist = net.transit_core_distances()
        assert np.array_equal(dist, core_distances_reference(net))
        domain = np.arange(net.params.n_transit) // per
        assert np.isinf(dist[domain[:, None] != domain[None, :]]).all()
        assert np.isfinite(dist[domain[:, None] == domain[None, :]]).all()

    def test_one_node_per_domain(self):
        self._same(TransitStubParams(transit_nodes_per_domain=1))

    def test_one_domain(self):
        self._same(TransitStubParams(n_transit_domains=1))

    @pytest.mark.parametrize("latencies", [(0.1, 0.7), (1 / 3, 0.3)])
    def test_fractional_latencies_agree_within_an_ulp_or_two(self, latencies):
        """A path's legs are added in another order (Floyd-Warshall joins
        two shortest subpaths, Dijkstra extends one path edge by edge), and
        float addition is not associative, so the last bit can differ."""
        inter, intra = latencies
        net = TransitStubNetwork(
            TransitStubParams(lat_inter_transit_ms=inter, lat_intra_transit_ms=intra)
        )
        dist, want = net.transit_core_distances(), core_distances_reference(net)
        assert (np.abs(dist - want) <= 4 * np.spacing(want)).all()


class TestStubDomains:
    def test_domain_is_cached(self, small_net):
        gateway, hops = domain_hops(small_net, 0)
        before = hops.copy()
        assert domain_hops(small_net, 0)[0] == gateway
        assert np.array_equal(domain_hops(small_net, 0)[1], before)

    def test_hop_distances_connected(self, small_net):
        _, hops = domain_hops(small_net, 0)
        assert np.all(hops < UNREACHABLE)
        assert np.all(np.diag(hops) == 0)

    def test_gateway_distance_zero_for_gateway(self, small_net):
        gateway, _ = domain_hops(small_net, 0)
        assert small_net.gateway_hops(np.array([0]), np.array([gateway]))[0] == 0

    def test_gateway_distance_positive_for_others(self, small_net):
        gateway, _ = domain_hops(small_net, 0)
        size = small_net.params.stub_nodes_per_domain
        local = np.arange(size)
        hops = small_net.gateway_hops(np.zeros(size, dtype=np.int64), local)
        assert hops[gateway] == 0
        assert (np.delete(hops, gateway) >= 1).all()

    def test_intra_domain_distance_symmetric(self, small_net):
        domain = np.array([0])
        a, b = np.array([0]), np.array([3])
        hops = small_net.stub_hops
        assert hops(domain, a, b) == hops(domain, b, a)

    def test_determinism_independent_of_access_order(self):
        params = TransitStubParams(
            n_transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=6,
        )
        net1 = TransitStubNetwork(params, seed=7)
        net2 = TransitStubNetwork(params, seed=7)
        # Touch domains in different orders.
        domain_hops(net1, 0)
        gateway1, hops1 = domain_hops(net1, 3)
        gateway2, hops2 = domain_hops(net2, 3)  # touched first here
        assert gateway1 == gateway2
        assert np.array_equal(hops1, hops2)

    def test_different_seeds_differ(self):
        params = TransitStubParams(
            n_transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=10,
        )
        gateway_a, hops_a = domain_hops(TransitStubNetwork(params, seed=1), 0)
        gateway_b, hops_b = domain_hops(TransitStubNetwork(params, seed=2), 0)
        assert gateway_a != gateway_b or not np.array_equal(hops_a, hops_b)

    def test_bad_domain_id(self, small_net):
        with pytest.raises(ValueError):
            domain_hops(small_net, small_net.params.n_stub_domains)


class TestHopMatricesAgainstOracle:
    """Every materialised domain's hop counts equal scipy's all-pairs
    shortest paths over the same edges."""

    def test_small_network_every_domain(self, small_net):
        # A domain's edges are the pairs one hop apart.
        for domain_id in range(small_net.params.n_stub_domains):
            _, hops = domain_hops(small_net, domain_id)
            assert np.array_equal(hops, hop_matrix_reference(hops == 1))
            assert hops.max() < UNREACHABLE

    def test_paper_parameters_every_domain(self):
        net = TransitStubNetwork(seed=3)
        all_domains = np.arange(net.params.n_stub_domains)
        net.materialise(all_domains)
        assert (net._gateway >= 0).all()
        assert (net._gateway < net.params.stub_nodes_per_domain).all()
        for domain_id in all_domains.tolist():
            gateway, hops = domain_hops(net, domain_id)
            assert gateway == net._gateway[domain_id]
            assert np.array_equal(hops, hop_matrix_reference(hops == 1))
            assert hops.max() < UNREACHABLE
        # Built, a domain keeps no hop matrix: no array of the network is
        # (domain, node, node).
        size = net.params.stub_nodes_per_domain
        shapes = [a.shape for a in vars(net).values() if isinstance(a, np.ndarray)]
        assert (len(all_domains), size, size) not in shapes

    def test_materialise_is_idempotent_and_batch_equals_single(self, monkeypatch):
        """One batch builds every domain as building it alone does, in
        batches that mix connected draws with draws ``_connect_components``
        bridges."""
        calls = []
        real = transit_stub._connect_components
        monkeypatch.setattr(
            transit_stub, "_connect_components",
            lambda n, adjacency, rng: calls.append(n) or real(n, adjacency, rng),
        )
        dense = TransitStubParams(stub_nodes_per_domain=12, p_stub_edge=0.2)
        # The golden file's SPARSE_STUBS at seed 0: of the six domains, the
        # draws of 178, 200 and 252 are connected and the others bridge.
        sparse = TransitStubParams(stub_nodes_per_domain=8, p_stub_edge=0.12)
        for params, seed, domains, bridging in (
            (dense, 5, [7, 3, 7, 40], {3, 7}),
            (sparse, 0, [178, 3, 200, 64, 7, 252, 3], {3, 7, 64}),
        ):
            batch = TransitStubNetwork(params, seed=seed)
            before = len(calls)
            batch.materialise(np.array(domains))
            assert len(calls) - before == len(bridging)
            built = {d: domain_hops(batch, d) for d in domains}
            batch.materialise(np.array(domains[1:]))
            assert np.count_nonzero(batch._gateway >= 0) == len(built)
            single = TransitStubNetwork(params, seed=seed)
            for domain_id in sorted(built, reverse=True):
                before = len(calls)
                gateway, hops = domain_hops(single, domain_id)
                assert (len(calls) > before) == (domain_id in bridging)
                assert gateway == built[domain_id][0] == domain_hops(batch, domain_id)[0]
                assert np.array_equal(hops, built[domain_id][1])
                assert np.array_equal(hops, domain_hops(batch, domain_id)[1])

    def test_vector_gathers_match_scalar_queries(self, small_net):
        p = small_net.params
        stub = np.arange(p.n_transit, p.n_nodes)
        domain, local = small_net.stub_coordinates(stub)
        to_gateway = small_net.gateway_hops(domain, local) * p.lat_intra_stub_ms
        to_first = small_net.stub_hops(domain, local, np.zeros_like(local))
        for i, node in enumerate(stub.tolist()):
            d, j = divmod(node - p.n_transit, p.stub_nodes_per_domain)
            assert (domain[i], local[i]) == (d, j)
            gateway, hops = domain_hops(small_net, d)
            assert to_gateway[i] == hops[j, gateway] * p.lat_intra_stub_ms
            assert to_first[i] == hops[j, 0]

    def test_materialise_rejects_bad_ids(self, small_net):
        for bad in (-1, small_net.params.n_stub_domains):
            with pytest.raises(ValueError):
                small_net.materialise(np.array([0, bad]))


class TestDisconnectedDraws:
    """Sparse draws take the set-rebuilding ``_connect_components`` branch;
    connected ones never build a set."""

    def _count_bridging_calls(self, monkeypatch, params, n_domains):
        calls = []
        real = transit_stub._connect_components

        def spy(n, adjacency, rng):
            calls.append(n)
            return real(n, adjacency, rng)

        monkeypatch.setattr(transit_stub, "_connect_components", spy)
        net = TransitStubNetwork(params, seed=0)
        core_calls = len(calls)
        net.materialise(np.arange(n_domains))
        return net, len(calls) - core_calls

    def test_sparse_parameters_bridge_and_end_connected(self, monkeypatch):
        params = TransitStubParams(stub_nodes_per_domain=8, p_stub_edge=0.12)
        net, bridged = self._count_bridging_calls(monkeypatch, params, 64)
        assert bridged >= 60  # P(G(8, 0.12) connected) is about 1.5 %
        for domain_id in range(64):
            _, hops = domain_hops(net, domain_id)
            assert hops.max() < UNREACHABLE
            assert np.array_equal(hops, hop_matrix_reference(hops == 1))

    def test_paper_parameters_never_bridge(self, monkeypatch):
        _, bridged = self._count_bridging_calls(
            monkeypatch, TransitStubParams(), 200
        )
        assert bridged == 0


class TestGraphHelpers:
    def test_random_graph_connected(self):
        rng = np.random.default_rng(0)
        for p in (0.0, 0.05, 0.4):
            adjacency, hops = _random_graph(30, p, rng)
            assert np.all(hops < UNREACHABLE)
            assert np.array_equal(hops, hop_matrix_reference(adjacency))

    def test_random_graph_symmetric(self):
        rng = np.random.default_rng(1)
        adjacency, _ = _random_graph(20, 0.3, rng)
        assert np.array_equal(adjacency, adjacency.T)
        assert not adjacency.diagonal().any()

    def test_bfs_all_pairs_path_graph(self):
        # 0-1-2-3 path
        adjacency = np.zeros((4, 4), dtype=bool)
        for u in range(3):
            adjacency[u, u + 1] = adjacency[u + 1, u] = True
        for hops in (_all_pairs(adjacency), hop_matrix_reference(adjacency)):
            assert hops[0, 3] == 3
            assert hops[1, 2] == 1
            assert np.array_equal(hops, hops.T)

    def test_hop_matrix_marks_unreachable_pairs(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        hops = _all_pairs(adjacency)
        assert hops[0, 2] == hops[2, 1] == UNREACHABLE
        assert np.array_equal(hops, hop_matrix_reference(adjacency))

    def test_degenerate_sizes(self):
        rng = np.random.default_rng(2)
        adjacency, hops = _random_graph(1, 0.4, rng)
        assert adjacency.shape == hops.shape == (1, 1) and hops[0, 0] == 0
        adjacency, hops = _random_graph(2, 0.0, rng)
        assert hops[0, 1] == 1  # bridged
