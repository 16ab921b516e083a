"""Source-filter-store oracle: historical membership by per-position probes."""

from typing import FrozenSet, List, Sequence, Set, Tuple

from repro.asap.store import SourceFilterStore

__all__ = ["match_at_version_reference", "patch_history"]


def patch_history(
    store: SourceFilterStore, source: int
) -> List[Tuple[int, FrozenSet[int]]]:
    """``source``'s patches as ``[(version, changed positions), ...]``."""
    return [
        (version, frozenset(changed.tolist()))
        for version, changed in store._patches.get(source, ())
    ]


def match_at_version_reference(
    store: SourceFilterStore, source: int, version: int, positions: Sequence[int]
) -> bool:
    """Does ``source``'s filter as of ``version`` contain all ``positions``?

    A position's value at ``version`` is its current bit XOR the parity of
    the flips recorded by patches issued after ``version``; probed one
    position at a time, with no ``current`` hint.
    """
    flipped_odd: Set[int] = set()
    for v, changed in patch_history(store, source):
        if v > version:
            flipped_odd.symmetric_difference_update(changed)
    bits = store.matrix.row_bits(source)
    for pos in positions:
        bit = bool(bits[int(pos)])
        if int(pos) in flipped_odd:
            bit = not bit
        if not bit:
            return False
    return True
