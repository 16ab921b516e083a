"""Named, seeded random substreams.

Every stochastic component (topology wiring, trace synthesis, walker steps,
free-rider interest assignment, ...) pulls its own :class:`numpy.random
.Generator` from a :class:`RandomStreams` keyed by a stable string name.
Two properties follow:

* **Reproducibility** -- the same root seed always yields the same experiment,
  bit for bit.
* **Decoupling** -- adding draws to one component never perturbs another,
  because streams are independent children derived via ``SeedSequence.spawn``
  keyed on the component name rather than on creation order.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "stable_hash32"]


def stable_hash32(text: str) -> int:
    """A stable (process-independent) 32-bit hash of ``text``.

    Python's builtin ``hash`` is salted per process; CRC32 is stable across
    runs and platforms, which is what seeding requires.
    """
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


class RandomStreams:
    """Factory of independent, named :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("topology")
    >>> b = streams.get("trace")
    >>> a is streams.get("topology")   # cached: same object back
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory derives all substreams from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for stream ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(stable_hash32(name),)
            )
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, resetting its stream state."""
        self._cache.pop(name, None)
        return self.get(name)
