"""Test-side oracles: the plain implementations the product is checked against.

``src/repro`` ships one code path per behaviour.  What used to be its
in-tree twins live here, imported by tests only:

* :mod:`tests.oracles.repository` -- the object-per-entry ads cache
  (the model of one :class:`~repro.asap.state.AdsState` row);
* :mod:`tests.oracles.store` -- per-position historical filter probes,
  and the per-node keyword-union loop that built every source's filter;
* :mod:`tests.oracles.bloom` -- one object per filter: the plain bitmap and
  Section III-B's counting filter (the model of one
  :class:`~repro.bloom.matrix.FilterMatrix` column and of the patches
  :class:`~repro.asap.store.SourceFilterStore` mints for it);
* :mod:`tests.oracles.flood` -- full-edge-array Bellman-Ford floods;
* :mod:`tests.oracles.delivery` -- per-step ad-delivery loops;
* :mod:`tests.oracles.gsa` -- the GSA search heap loop over flat CSR lists;
* :mod:`tests.oracles.ledger` -- the bandwidth ledger as a dict of seconds,
  each a dict of categories;
* :mod:`tests.oracles.telemetry` -- telemetry's hot lists, per-window top
  lists and digests as dict sums and sorts;
* :mod:`tests.oracles.hops` -- scipy all-pairs hop counts of a stub graph
  and Dijkstra over the transit core;
* :mod:`tests.oracles.state` -- the O(n^2) invariant audit of the dense
  ads state;
* :mod:`tests.oracles.exchange` -- the ads exchange as a loop over the
  suppliers, each reply stored and evicted on its own;
* :mod:`tests.oracles.asap` -- the method-call-per-ad protocol built on
  all of the above.

:func:`oracle_arm` swaps them in for a whole ``run_experiment`` so run
fingerprints can be compared arm against arm; behaviour across commits is
frozen by ``tests/golden/run_fingerprints.json``.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.sim import kernels
from repro.simulation import runner

from tests.oracles.asap import OracleAsapSearch
from tests.oracles.flood import flood_frontier_reference

__all__ = ["oracle_arm"]


@contextmanager
def oracle_arm():
    """Build and run experiments on the oracles instead of the product paths.

    Covers flat ASAP (storage, delivery, dissemination, ads requests) and
    the flood kernel behind flooding search (every row of a pass).
    """
    with ExitStack() as stack:
        for target, name, oracle in (
            (runner, "AsapSearch", OracleAsapSearch),
            (kernels, "flood_frontier", flood_frontier_reference),
        ):
            stack.enter_context(mock.patch.object(target, name, oracle))
        yield
