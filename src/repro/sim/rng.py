"""Seeded random-number streams for reproducible experiments.

Every stochastic component (latency models, workload generators, random
topologies) draws from its own named stream derived from a single master
seed, so adding a new consumer never perturbs the draws seen by existing
ones — runs stay comparable across library versions.

numpy is imported only where a stream is drawn from.  :func:`spawn_rng`
returns a stand-in that builds the ``Generator`` — numpy's
``SeedSequence`` + ``PCG64``, constructed exactly as it always was — on
its first attribute access, so a run that never samples (unit latency,
deterministic schedules) never loads numpy.  Two things are pure Python:

* :func:`first_integer`, the sweep's cell seed: the first
  ``integers(0, high)`` of a stream, replayed bit for bit from numpy's
  SeedSequence hash pool, PCG64 seeding and one XSL-RR output step;
* :class:`DrawStream`, which serves a single consumer's scalar draws from
  the generator's raw 64-bit words at Python-int cost.

Both replay numpy internals, which the tests check against the installed
numpy (CI also at the declared floor).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["spawn_rng", "first_integer", "DrawStream"]

_BLOCK = 128  # raw words fetched per refill: numpy's per-call cost amortised
_HALF = 1 << 32
_MASK32 = _HALF - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# numpy's SeedSequence (numpy/random/bit_generator.pyx): entropy words are
# hashed into a pool of four 32-bit words, with a hash constant that every
# ``hashmix`` call advances, and ``generate_state`` reads the pool back out
# through a second hash.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# The pool's four words as one int, one word per 64-bit lane (see _fold).
_LANES = (0, 64, 128, 192)
_PACK32 = sum(_MASK32 << s for s in _LANES)
_PACK16 = sum(0xFFFF << s for s in _LANES)


def _check_seed(master_seed: int) -> int:
    """The seed as an int, rejected as ``SeedSequence`` would reject it."""
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got {seed}")
    return seed


def _build_generator(master_seed: int, name: str) -> np.random.Generator:
    import numpy as np

    # The name's code points are the spawn key, passed as one uint32 array:
    # SeedSequence coerces that to the entropy a tuple of ``ord(c)`` gives,
    # without converting one Python int at a time.
    key = np.frombuffer(name.encode("utf-32-le", "surrogatepass"), "<u4")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


class _LazyGenerator:
    """A ``numpy.random.Generator`` built on its first attribute access.

    Every attribute read through it is cached in the instance dict, so
    after the first draw a method such as ``rng.uniform`` is a plain dict
    hit on the generator's bound method: draws cost what they did on the
    generator itself.
    """

    def __init__(self, master_seed: int, name: str) -> None:
        self._seed = master_seed
        self._name = name

    def __getattr__(self, attr: str):
        # Reached only for names not cached yet.
        generator = self.__dict__.get("_generator")
        if generator is None:
            generator = self.__dict__["_generator"] = _build_generator(self._seed, self._name)
        value = self.__dict__[attr] = getattr(generator, attr)
        return value


def spawn_rng(master_seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from ``(master_seed, name)``.

    The stream is a deterministic function of both arguments; distinct names
    give statistically independent streams (SeedSequence spawn keys).  The
    generator is built, and numpy imported, when it is first used.
    """
    return _LazyGenerator(_check_seed(master_seed), name)


# ----------------------------------------------------------------------
# first_integer: SeedSequence -> PCG64 -> integers(0, high), in Python
# ----------------------------------------------------------------------
def _hash_constants(const: int, mult: int, count: int) -> list[int]:
    """``count + 1`` successive hash constants from ``const``: the i-th
    hash masks its input with the i-th and multiplies it by the next."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


#: ``mix_entropy``'s first sixteen hashes: one per pool word, then one per
#: ordered pair ``(src, dst)``, as ``(src, dst, xor, mult)``.
_A = _hash_constants(_INIT_A, _MULT_A, 16)
_PAIR_STEPS = tuple(
    (src, dst, _A[call], _A[call + 1])
    for call, (src, dst) in enumerate(
        ((s, d) for s in range(_POOL) for d in range(_POOL) if s != d), _POOL
    )
)
#: ``generate_state``'s eight hashes, ``(xor, mult)``, read round the pool.
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_STEPS = tuple(zip(_B, _B[1:]))


def _mixed_pool(words: list[int]) -> int:
    """The pool from the first four entropy words (zero past ``words``),
    every word then mixed into every other, packed into :data:`_LANES`."""
    pool = []
    for i in range(_POOL):
        value = ((words[i] if i < len(words) else 0) ^ _A[i]) * _A[i + 1] & _MASK32
        pool.append(value ^ value >> 16)
    for src, dst, xor, mult in _PAIR_STEPS:
        value = (pool[src] ^ xor) * mult & _MASK32
        mixed = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    return sum(word << s for word, s in zip(pool, _LANES))


def _terms(codes: Iterable[int], const: int) -> tuple[list[int], int]:
    """Per entropy word past the fourth, the packed ``-_MIX_R * hashmix``
    that ``mix`` folds into each pool word (four hashes, from hash constant
    ``const`` on), and the constant after them.  A word's hashes depend on
    the constant, never on the pool."""
    terms = []
    for code in codes:
        term = 0
        for s in _LANES:
            mult = const * _MULT_A & _MASK32
            value = (code ^ const) * mult & _MASK32
            term |= (-_MIX_R * (value ^ value >> 16) & _MASK32) << s
            const = mult
        terms.append(term)
    return terms, const


@lru_cache(maxsize=1024)
def _name_terms(name: str, const: int) -> tuple[int, ...]:
    """:func:`_terms` of a spawn-key name, once per name; ``ord()`` is its
    UTF-32 unit, lone surrogates included."""
    return tuple(_terms(map(ord, name), const)[0])


def _fold(pool: int, terms: Iterable[int]) -> int:
    """``mix`` of each term into all four packed pool words at once: one
    lane's ``_MIX_L * word + term`` stays below 2**64, so no carry crosses
    lanes before the mask."""
    for term in terms:
        pool = (pool * _MIX_L + term) & _PACK32
        pool ^= pool >> 16 & _PACK16
    return pool


def first_integer(master_seed: int, name: str, high: int) -> int:
    """``int(spawn_rng(master_seed, name).integers(0, high))``, without numpy.

    Bit for bit: SeedSequence's ``mix_entropy`` over the seed's 32-bit
    words and then the name's code points (the spawn key), its
    ``generate_state(4, uint64)``, PCG64's seeding of state and increment,
    and words from its XSL-RR output through :class:`DrawStream`'s Lemire
    draw.  ``high`` is limited to ``[1, 2**32]`` as there.
    """
    seed = _check_seed(master_seed)
    words = [seed >> s & _MASK32 for s in range(0, max(32, seed.bit_length()), 32)]
    pool = _mixed_pool(words)
    const = _A[-1]
    if len(words) > _POOL:  # a seed of 2**128 or more: its own words go first
        extra, const = _terms(words[_POOL:], const)
        pool = _fold(pool, extra)
    pool = _fold(pool, _name_terms(name, const))
    # generate_state: eight 32-bit words read round the pool, viewed as
    # four little-endian uint64s; PCG64 takes the first two as its 128-bit
    # seed and the last two as its increment, high word first.
    words = [pool >> s & _MASK32 for s in _LANES] * 2
    state = [(word ^ xor) * mult & _MASK32 for word, (xor, mult) in zip(words, _STATE_STEPS)]
    s0, s1, s2, s3 = (
        lo ^ lo >> 16 | (hi ^ hi >> 16) << 32 for lo, hi in zip(state[::2], state[1::2])
    )
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    lcg = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def next_word() -> list[int]:
        nonlocal lcg
        lcg = (lcg * _PCG_MULT + inc) & _MASK128
        rot = lcg >> 122
        word = (lcg >> 64 ^ lcg) & _MASK64
        return [(word >> rot | word << 64 - rot) & _MASK64]

    return DrawStream._from_refill(next_word).integers(high)


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

    __slots__ = ("_refill", "_words", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        state = bitgen.state
        raw = bitgen.random_raw
        self._refill: Callable[[], list[int]] = lambda: raw(_BLOCK)[::-1].tolist()
        self._words: list[int] = []  # reversed block: pop() is the next word
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None

    @classmethod
    def _from_refill(cls, refill: Callable[[], list[int]]) -> "DrawStream":
        """A stream over words from ``refill`` (a reversed block per call),
        no half-word pending."""
        self = cls.__new__(cls)
        self._refill, self._words, self._half = refill, [], None
        return self

    def _word(self) -> int:
        words = self._words
        if not words:
            words = self._words = self._refill()
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
