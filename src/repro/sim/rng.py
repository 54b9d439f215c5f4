"""Seeded random-number streams for reproducible experiments.

Every stochastic component (latency models, workload generators, random
topologies) draws from its own named stream derived from a single master
seed, so adding a new consumer never perturbs the draws seen by existing
ones — runs stay comparable across library versions.

A stream with a single consumer that draws one scalar at a time hands its
generator to a :class:`DrawStream`, which serves the same values from the
generator's raw 64-bit words at Python-int cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng", "DrawStream"]

_BLOCK = 128  # raw words fetched per refill: numpy's per-call cost amortised
_HALF = 1 << 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def spawn_rng(master_seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from ``(master_seed, name)``.

    The stream is a deterministic function of both arguments; distinct names
    give statistically independent streams (SeedSequence spawn keys).
    """
    # The name's code points are the spawn key, passed as one uint32 array:
    # SeedSequence coerces that to the entropy a tuple of ``ord(c)`` gives,
    # without converting one Python int at a time.
    key = np.frombuffer(name.encode("utf-32-le", "surrogatepass"), "<u4")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


class DrawStream:
    """Scalar draws of a ``Generator``, replayed from its raw words.

    ``random()`` and ``integers(high)`` return exactly the values, in the
    same order, that the generator's own ``random()`` and
    ``integers(0, high)`` would have: each word of
    ``bit_generator.random_raw`` goes through numpy's transform — the top
    53 bits scaled to ``[0, 1)``, or 32-bit halves (low half first, the
    high half kept for the next draw) into Lemire's bounded draw with its
    rejection loop.  The stream takes the generator over, pending half-word
    included; drawing from the generator afterwards desynchronises the two.
    """

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        state = bitgen.state
        self._raw = bitgen.random_raw
        self._words: list[int] = []  # reversed block: pop() is the next word
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        words = self._words
        if not words:
            words = self._words = self._raw(_BLOCK)[::-1].tolist()
        return words.pop()

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """``Generator.random()``: a float in ``[0, 1)`` (one word)."""
        return (self._word() >> 11) * _DOUBLE_UNIT

    def integers(self, high: int) -> int:
        """``Generator.integers(0, high)`` as a Python int.

        ``high == 1`` draws nothing, as in numpy; above ``2**32`` numpy
        switches to a 64-bit draw this stream does not replay.
        """
        if high == 1:
            return 0
        if not 1 < high <= _HALF:
            raise ValueError(f"DrawStream.integers needs 1 <= high <= 2**32, got {high}")
        threshold = _HALF % high
        while True:
            prod = self._next32() * high
            if (prod & 0xFFFFFFFF) >= threshold:
                return prod >> 32
