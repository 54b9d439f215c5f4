"""Unit tests for seeded RNG streams.

The ``DrawStream``, ``first_integer`` and ``spawn_rng`` contracts are
checked against whichever numpy is installed (CI also runs this file at
the declared numpy floor): the replays must equal the ``Generator``'s own
draws, the array spawn key must give the state the per-character tuple
did, and the generator ``spawn_rng`` builds on first use must be the one
direct construction gives.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import DrawStream, first_integer, spawn_rng
from repro.sweep import GRIDS, cell_seed


def test_same_seed_and_name_reproduces():
    a = spawn_rng(42, "latency").random(10)
    b = spawn_rng(42, "latency").random(10)
    assert np.array_equal(a, b)


def test_different_names_differ():
    a = spawn_rng(42, "latency").random(10)
    b = spawn_rng(42, "workload").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = spawn_rng(1, "latency").random(10)
    b = spawn_rng(2, "latency").random(10)
    assert not np.array_equal(a, b)


# ----------------------------------------------------------------------
# spawn keys: one uint32 array == the old per-character tuple
# ----------------------------------------------------------------------
#: One name per ``spawn_rng`` call pattern in ``src/``, plus the empty
#: name and two non-ASCII ones (one outside the BMP).
STREAM_NAMES = (
    "network-latency",
    "fault-loss",
    "geometric-24-0.35",
    "gnp-24-0.3",
    "poisson-24-480-12.0",
    "bursty-16-4-4",
    "hotspot-24-480",
    "random-8-20-16.0",
    "ratio-poisson",
    "wilson-25",
    "sweep/gnp(n=24,p=0.3)/random/hotspot(per_node=20,rate_per_node=0.5)",
    "",
    "grüße-Δ",
    "pfeil-\U0001d4d0",
)


def _tuple_key_rng(master_seed, name):
    seq = np.random.SeedSequence(
        entropy=master_seed, spawn_key=tuple(ord(c) for c in name)
    )
    return np.random.Generator(np.random.PCG64(seq))


@pytest.mark.parametrize("name", STREAM_NAMES)
@pytest.mark.parametrize("master_seed", [0, 7, 2**40 + 3])
def test_spawn_key_array_gives_the_per_character_state(master_seed, name):
    expect = _tuple_key_rng(master_seed, name).bit_generator.state
    assert spawn_rng(master_seed, name).bit_generator.state == expect


# ----------------------------------------------------------------------
# DrawStream: the word replay equals the Generator's scalar calls
# ----------------------------------------------------------------------
#: 1 draws nothing; 2**31 + 1 rejects about half its draws (the Lemire
#: loop); 2**32 takes a raw half-word.
HIGHS = (1, 2, 3, 24, 2**31 - 1, 2**31 + 1, 2**32)

_OPS = st.lists(st.one_of(st.just(None), st.sampled_from(HIGHS)), max_size=400)


def _twin(seed, pre):
    """Two identical generators, each after ``pre`` scalar ``integers``
    calls (odd ``pre`` leaves a half-word pending at hand-over)."""
    pair = spawn_rng(seed, "replay"), spawn_rng(seed, "replay")
    for g in pair:
        for _ in range(pre):
            g.integers(0, 1000)
    return pair


def _replay_matches(seed, pre, ops):
    reference, handed_over = _twin(seed, pre)
    draws = DrawStream(handed_over)
    for high in ops:
        if high is None:
            expect, got = reference.random(), draws.random()
        else:
            expect, got = int(reference.integers(0, high)), draws.integers(high)
        assert type(got) is type(expect)
        assert got == expect, (high, expect, got)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), pre=st.integers(0, 3), ops=_OPS)
def test_replay_equals_the_generator_draw_for_draw(seed, pre, ops):
    _replay_matches(seed, pre, ops)


@pytest.mark.parametrize("high", HIGHS)
@pytest.mark.parametrize("pre", [0, 1, 3])
def test_replay_of_one_bound_over_many_draws(high, pre):
    _replay_matches(11, pre, [high] * 3000 + [None, high] * 300)


def test_handover_adopts_the_pending_half_word():
    reference, handed_over = _twin(5, 1)
    assert handed_over.bit_generator.state["has_uint32"] == 1
    draws = DrawStream(handed_over)
    # random() leaves the pending half alone, as numpy's next_double does.
    assert draws.random() == reference.random()
    assert draws.integers(2**32) == int(reference.integers(0, 2**32))
    assert draws.integers(2**32) == int(reference.integers(0, 2**32))


def test_a_bound_of_one_draws_nothing():
    reference, handed_over = _twin(3, 0)
    draws = DrawStream(handed_over)
    assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert draws.random() == reference.random()


@pytest.mark.parametrize("high", [2**32 + 1, 2**40, 0, -3])
def test_bounds_outside_the_32_bit_draw_raise(high):
    with pytest.raises(ValueError, match="high"):
        DrawStream(spawn_rng(0, "replay")).integers(high)


# ----------------------------------------------------------------------
# first_integer: SeedSequence -> PCG64 -> integers(0, high), in Python
# ----------------------------------------------------------------------
#: Where the seed's entropy grows a word: past 2**128 it runs beyond the
#: four-word pool and is mixed in after the pairwise mixing.
SEED_BOUNDARIES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**130 - 1)
#: 2**31 - 1 is the cell-seed bound; 2**32 takes a raw half-word.
FIRST_HIGHS = (2, 3, 2**31 - 1, 2**32)

_NAMES = st.one_of(
    st.just(""),
    st.text(st.characters(min_codepoint=32, max_codepoint=126)),
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, exclude_categories=["Cs"])),
    st.text(st.characters(min_codepoint=0x10000), min_size=1),
    # lone surrogates: SeedSequence sees their code points like any other
    st.text(st.sampled_from(["\ud800", "\udfff", "a"]), min_size=1),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**130 - 1), st.sampled_from(SEED_BOUNDARIES)),
    name=_NAMES,
    high=st.sampled_from(FIRST_HIGHS),
)
@example(seed=2**128, name="", high=2)
@example(seed=2**128 + 1, name="sweep/complete(n=8)/bfs/one_shot()", high=2**31 - 1)
def test_first_integer_is_numpys_first_draw(seed, name, high):
    assert first_integer(seed, name, high) == int(_tuple_key_rng(seed, name).integers(0, high))


@pytest.mark.parametrize("seed", SEED_BOUNDARIES)
@pytest.mark.parametrize("name", STREAM_NAMES + ("x\udc80y",))
def test_first_integer_at_the_entropy_word_boundaries(seed, name):
    for high in FIRST_HIGHS:
        want = int(_tuple_key_rng(seed, name).integers(0, high))
        assert first_integer(seed, name, high) == want


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        first_integer(-1, "sweep", 2)
    with pytest.raises(ValueError, match="non-negative"):
        spawn_rng(-1, "sweep")


def test_cell_seed_is_numpys_draw_for_every_preset_cell():
    """Every cell of every named grid at its default arguments."""
    cells = [cell for preset in GRIDS.values() for cell in preset().cells()]
    assert len(cells) > 100
    for cell in cells:
        name = f"sweep/{cell.graph.label()}/{cell.tree}/{cell.schedule.label()}"
        want = int(_tuple_key_rng(cell.seed, name).integers(0, 2**31 - 1))
        assert cell_seed(cell) == want, cell


# ----------------------------------------------------------------------
# spawn_rng: the generator built on first use is direct construction's
# ----------------------------------------------------------------------
_DRAWS = {
    "random": lambda g: g.random(),
    "integers": lambda g: g.integers(0, 1000),
    "exponential": lambda g: g.exponential(0.5),
    "uniform": lambda g: g.uniform(0.1, 1.0),
}


@pytest.mark.parametrize("draw", sorted(_DRAWS))
@pytest.mark.parametrize("name", ["network-latency", "", "pfeil-\U0001d4d0"])
def test_lazy_generator_is_direct_construction(draw, name):
    lazy, direct = spawn_rng(2**70 + 9, name), _tuple_key_rng(2**70 + 9, name)
    assert lazy.bit_generator.state == direct.bit_generator.state
    call = _DRAWS[draw]
    assert [call(lazy) for _ in range(1000)] == [call(direct) for _ in range(1000)]
    assert lazy.bit_generator.state == direct.bit_generator.state


def test_lazy_generator_caches_the_bound_methods():
    rng = spawn_rng(3, "network-latency")
    first = rng.uniform
    assert rng.uniform is first  # a dict hit, not a rebuilt bound method
    assert rng.integers(0, 10, size=4).shape == (4,)
