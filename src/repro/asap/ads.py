"""Ad representation (paper Section III-B).

An ad is the tuple *(I, C, T, v)*: node identity, content information,
topic set and a version number.  Three ad types exist:

* **full** -- complete content filter (transmitted in the cheaper of the
  raw-bitmap or sparse set-bit encodings);
* **patch** -- the list of bit positions that changed since version v-1;
* **refresh** -- empty content information; asserts liveness and lets
  cachers detect that they missed patches (version mismatch).

In the simulator an ad does not carry the actual filter bits -- cached
filter state is reconstructed exactly from the global
:class:`~repro.asap.store.SourceFilterStore` (current bits + patch history),
which avoids storing one 1.4 KB snapshot per (source, cacher) pair.  The ad
carries everything needed for *protocol* decisions and *byte* accounting:
source, type, topics, version, changed positions (patches) and the set-bit
count (full-ad wire size).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.bloom.compressed import compressed_filter_size, patch_size
from repro.bloom.hashing import PAPER_M
from repro.search.base import AD_HEADER_BYTES
from repro.sim.metrics import TrafficCategory

__all__ = ["Ad", "AdType"]


class AdType(enum.Enum):
    FULL = "full"
    PATCH = "patch"
    REFRESH = "refresh"


#: Ledger category per ad type (Figure 7's breakdown).
AD_CATEGORY = {
    AdType.FULL: TrafficCategory.FULL_AD,
    AdType.PATCH: TrafficCategory.PATCH_AD,
    AdType.REFRESH: TrafficCategory.REFRESH_AD,
}


@dataclass(frozen=True, slots=True)
class Ad:
    """One advertisement: (I, C, T, v) plus wire-size bookkeeping."""

    source: int
    ad_type: AdType
    topics: FrozenSet[int]
    version: int
    changed_positions: Tuple[int, ...] = ()  # patch payload
    n_set_bits: int = 0  # full-ad payload size input
    filter_bits: int = PAPER_M  # m, for the raw-bitmap size bound

    def __post_init__(self) -> None:
        if self.version < 0:
            raise ValueError("negative ad version")
        if self.ad_type is AdType.PATCH and not self.changed_positions:
            raise ValueError("a patch ad must carry changed positions")
        if self.ad_type is not AdType.PATCH and self.changed_positions:
            raise ValueError("only patch ads carry changed positions")
        if self.n_set_bits < 0:
            raise ValueError("negative set-bit count")

    def payload_bytes(self) -> int:
        """Payload size on the wire (excludes the common ad header)."""
        if self.ad_type is AdType.FULL:
            return compressed_filter_size(self.n_set_bits, self.filter_bits)
        if self.ad_type is AdType.PATCH:
            return patch_size(len(self.changed_positions))
        return 0  # refresh: empty content information

    def size_bytes(self) -> int:
        """Total wire size: header + payload."""
        return AD_HEADER_BYTES + self.payload_bytes()

    @property
    def category(self) -> TrafficCategory:
        """The ledger category this ad's traffic is recorded under."""
        return AD_CATEGORY[self.ad_type]
