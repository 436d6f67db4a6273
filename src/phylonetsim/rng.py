"""Counter-based random streams.

Every sampler in this package takes an :class:`RngStream`.  A stream keys a
Philox generator through a SeedSequence built from (seed, stream_id) plus
the nested derivation path, so identical streams reproduce identical draws,
distinct streams are statistically independent, and substream derivation is
collision-resistant at any nesting depth.  Replicate loops allocate one
stream per replicate, which makes results independent of execution order
and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_BUF = 1024


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0
    path: tuple = field(default=())

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed % (1 << 64), spawn_key=(self.stream_id % (1 << 64), *self.path)
        )
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, i: int) -> "RngStream":
        """Derive the i-th child stream (independent of all other streams)."""
        return RngStream(self.seed, self.stream_id, self.path + (i,))


class BufferedRng:
    """Amortizes Generator call overhead for tight event loops."""

    def __init__(self, stream: RngStream):
        self._gen = stream.generator()
        self._u = self._gen.random(_BUF)
        self._iu = 0

    def uniform(self) -> float:
        if self._iu == _BUF:
            self._u = self._gen.random(_BUF)
            self._iu = 0
        v = self._u[self._iu]
        self._iu += 1
        return v

    def generator(self) -> np.random.Generator:
        """The generator behind the buffer, for draws of whole arrays.

        Array draws bypass the buffer: they read the stream past the uniforms
        already buffered.  So twin buffers that make the same calls in the
        same order still draw alike.
        """
        return self._gen


def buffered(rng) -> BufferedRng:
    """rng itself if it is a BufferedRng, else a new buffer on the stream rng."""
    return rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
