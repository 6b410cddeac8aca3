"""Deterministic random streams, keyed per device and purpose.

Philox is counter-based, so a (device, purpose) pair maps to an
independent substream regardless of how many draws any other stream has
consumed. That property is what makes the two engines produce identical
variates even though they interleave draws in different orders.

`substream` builds the reference numpy Generator for one pair. Runs do
not build one per pair: that costs an OS-entropy SeedSequence and about
1 KB each. A `Stream` holds only its key, a Philox block counter and a
short list of spare floats. When the list runs dry it refills from one
Philox bit generator shared by every stream of the run: it sets that
generator's state to the stream's key and counter and draws a block of
doubles. Block sizes are multiples of 4, so every block starts on a
Philox counter boundary, and each double is one 64-bit output. The
variates are therefore bit-identical to `substream(...).random(k)`
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
Blocks grow 4, 8, 16, 32, then stay at 64 floats, so a stream drawn
once (placement, profile choice) holds at most 3 spare floats.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

_MASK64 = (1 << 64) - 1

# Stream purposes. Keep values stable: they are baked into the key and
# therefore into every frozen regression value.
PLACEMENT, DWELL, DESTINATION, LOAD, POLICY, PROFILE_ASSIGN = range(6)

N_PURPOSES = 6

# Largest refill, in Philox blocks of four doubles. Bigger blocks leave
# more spare floats in memory for every lightly used stream.
_MAX_BLOCKS = 16


def _key_high(device: int, purpose: int) -> int:
    if not 0 <= purpose < N_PURPOSES:
        raise ValueError(f"unknown stream purpose: {purpose}")
    return (device << 3) | purpose


def substream(seed: int, device: int, purpose: int) -> Generator:
    """Generator for one (device, purpose) pair under a run seed.

    The Philox key packs (device, purpose) into the high word and the
    run seed into the low word, so distinct pairs can never collide.
    This is the reference that `Stream` draws must equal.
    """
    key = _key_high(device, purpose) << 64 | (seed & _MASK64)
    return Generator(Philox(key=key))


def block_source() -> Generator:
    """The Philox generator that a run's streams refill from.

    Its seed is irrelevant: every refill overwrites the whole state.
    """
    return Generator(Philox(0))


class Stream:
    """One (device, purpose) substream, drawn in counter-aligned blocks."""

    __slots__ = ("_source", "_key", "_counter", "_buf")

    def __init__(
        self, source: Generator, seed: int, device: int, purpose: int
    ) -> None:
        self._source = source
        self._key = (seed & _MASK64, _key_high(device, purpose))
        self._counter = 0  # Philox blocks consumed so far
        self._buf: list[float] = []  # spare floats, next draw last

    def random(self, size: Optional[int] = None):
        """Next uniform double in [0, 1); with size, an array of the next size."""
        if size is not None:
            return np.array([self.random() for _ in range(size)], dtype=np.float64)
        buf = self._buf
        if not buf:
            buf = self._refill()
        return buf.pop()

    def _refill(self) -> list[float]:
        c = self._counter
        blocks = min(c + 1, _MAX_BLOCKS)
        source = self._source
        source.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [c, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # buffer empty: the next draw runs block c + 1
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._counter = c + blocks
        self._buf = buf = source.random(4 * blocks)[::-1].tolist()
        return buf


class DeviceStreams:
    """Lazily built cache of a device's per-purpose streams.

    Streams refill from `source`; a run passes the one it owns, and a
    standalone instance makes its own.
    """

    __slots__ = ("seed", "device", "_source", "_streams")

    def __init__(
        self, seed: int, device: int, source: Optional[Generator] = None
    ) -> None:
        self.seed = seed
        self.device = device
        self._source = block_source() if source is None else source
        self._streams: dict[int, Stream] = {}

    def get(self, purpose: int) -> Stream:
        stream = self._streams.get(purpose)
        if stream is None:
            stream = Stream(self._source, self.seed, self.device, purpose)
            self._streams[purpose] = stream
        return stream


def run_seed(master_seed: int, family: str, index: int) -> int:
    """Derive the seed for run `index` of a named run family.

    Families keep campaign arms independent: the same index in different
    families never shares a stream. Derivation goes through SeedSequence
    so nearby (family, index) pairs decorrelate.
    """
    tag = zlib.crc32(family.encode("utf-8"))
    ss = SeedSequence(entropy=master_seed, spawn_key=(tag, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
