"""Named, independently-seeded random substreams.

Reproducible experiments need more than a single seed: if the arrival
process and the placement shuffle shared one generator, changing the
number of placement draws would perturb every subsequent arrival.  Each
component therefore gets its own :class:`numpy.random.Generator` derived
from a root :class:`numpy.random.SeedSequence` and a stable string key,
so streams are statistically independent *and* stable across unrelated
code changes.

Two accessors build the same stream for a key.  :meth:`RandomStreams.get`
caches it for the factory's lifetime; use it for the bounded set of
named streams: the run streams (``arrivals``, ``placement``, ``catalog``,
``clients``, ``interactivity``, ``calibrate``; live,
``chaos.toxic.gateway``) and the per-server fault and join streams
(``fault.crash.<sid>``, ``fault.link.<sid>``, ``fault.replica``,
``calibrate.join.<sid>``).  :meth:`RandomStreams.fresh`
builds a new, uncached generator on every call; use it for keys minted
per request, client or attempt (``retry.req<id>``,
``serve.client.<i>.retry<k>``, ``chaos.client.<i>``), so a generator
lives only as long as its holder does instead of for the whole run.
The live load generator's ``arrival_trace`` also draws a fresh copy of
a run's ``arrivals`` stream: the same arrivals, without touching the
run's own generator.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RandomStreams:
    """A factory of named, decoupled random generators.

    Example:
        >>> streams = RandomStreams(seed=42)
        >>> a1 = streams.get("arrivals").random()
        >>> streams2 = RandomStreams(seed=42)
        >>> _ = streams2.get("placement").random()  # unrelated draw
        >>> a2 = streams2.get("arrivals").random()
        >>> a1 == a2
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @staticmethod
    def _key_to_int(key: str) -> int:
        """Map a stream name to a stable 32-bit integer (crc32)."""
        return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF

    def fresh(self, key: str) -> np.random.Generator:
        """A new generator at the start of *key*'s stream, not cached.

        The same (seed, key) pair always yields an identical stream,
        independent of access order and of other keys.
        """
        child = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self._key_to_int(key),)
        )
        return np.random.default_rng(child)

    def get(self, key: str) -> np.random.Generator:
        """The generator for *key*, built by :meth:`fresh` on first use
        and cached, so later calls continue the same stream."""
        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = self.fresh(key)
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
