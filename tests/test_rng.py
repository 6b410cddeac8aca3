"""Stream keying: per-(device, purpose) isolation and seed derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.rng import (
    DESTINATION,
    DWELL,
    LOAD,
    N_PURPOSES,
    PLACEMENT,
    POLICY,
    PROFILE_ASSIGN,
    DeviceStreams,
    block_source,
    run_seed,
    substream,
)


def test_purpose_tags_are_distinct_and_stable():
    tags = [PLACEMENT, DWELL, DESTINATION, LOAD, POLICY, PROFILE_ASSIGN]
    assert tags == list(range(6))
    assert N_PURPOSES == 6


def test_same_key_reproduces_the_same_sequence():
    a = substream(42, 7, DWELL).random(16)
    b = substream(42, 7, DWELL).random(16)
    assert np.array_equal(a, b)


def test_distinct_purposes_give_distinct_sequences():
    a = substream(42, 7, DWELL).random(8)
    b = substream(42, 7, DESTINATION).random(8)
    assert not np.array_equal(a, b)


def test_distinct_devices_give_distinct_sequences():
    a = substream(42, 7, DWELL).random(8)
    b = substream(42, 8, DWELL).random(8)
    assert not np.array_equal(a, b)


def test_draw_order_across_purposes_is_irrelevant():
    # the property both engines rely on: consuming purpose A never
    # perturbs purpose B
    s1 = DeviceStreams(42, 3)
    s1.get(DWELL).random(100)
    after_heavy_use = s1.get(DESTINATION).random(8)
    s2 = DeviceStreams(42, 3)
    fresh = s2.get(DESTINATION).random(8)
    assert np.array_equal(after_heavy_use, fresh)


def test_device_streams_cache_returns_same_generator():
    s = DeviceStreams(42, 0)
    assert s.get(DWELL) is s.get(DWELL)


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        substream(42, 0, 17)


def test_run_seed_is_deterministic():
    assert run_seed(1, "validate-baseline", 5) == run_seed(1, "validate-baseline", 5)


def test_run_seed_separates_families_and_indices():
    seen = set()
    for family in ("validate-baseline", "validate-renovated", "bench-devices=200"):
        for i in range(50):
            seen.add(run_seed(123, family, i))
    assert len(seen) == 150


def test_run_seed_fits_in_uint64():
    s = run_seed(2**63, "f", 0)
    assert 0 <= s < 2**64


def test_negative_master_seed_handled():
    # the low word masks to 64 bits rather than erroring
    gen = substream(-17 & ((1 << 64) - 1), 0, DWELL)
    assert 0.0 <= gen.random() < 1.0


# --- block-drawn streams against the reference Generator ---------------------

seeds = st.integers(min_value=0, max_value=2**64 - 1)
devices = st.integers(min_value=0, max_value=10**5)
purposes = st.sampled_from(range(N_PURPOSES))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, device=devices, purpose=purposes, n=st.integers(1, 400))
def test_scalar_draws_equal_reference_across_block_boundaries(seed, device, purpose, n):
    stream = DeviceStreams(seed, device).get(purpose)
    draws = [stream.random() for _ in range(n)]
    assert all(type(u) is float for u in draws)
    assert np.array_equal(np.array(draws), substream(seed, device, purpose).random(n))


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    device=devices,
    order=st.lists(st.tuples(purposes, st.integers(1, 70)), max_size=30),
)
def test_interleaved_purposes_each_equal_reference(seed, device, order):
    streams = DeviceStreams(seed, device)
    drawn: dict[int, list[float]] = {p: [] for p in range(N_PURPOSES)}
    for purpose, k in order:
        stream = streams.get(purpose)
        drawn[purpose].extend(stream.random() for _ in range(k))
    for purpose, got in drawn.items():
        ref = substream(seed, device, purpose).random(len(got))
        assert np.array_equal(np.array(got, dtype=np.float64), ref)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, device=devices, purpose=purposes, head=st.integers(0, 100),
       n=st.integers(0, 150))
def test_vector_draw_equals_scalar_draws(seed, device, purpose, head, n):
    a = DeviceStreams(seed, device).get(purpose)
    b = DeviceStreams(seed, device).get(purpose)
    for _ in range(head):
        a.random()
        b.random()
    block = a.random(n)
    assert block.dtype == np.float64 and block.shape == (n,)
    assert np.array_equal(block, np.array([b.random() for _ in range(n)]))


def test_seeds_at_and_above_two_to_the_63_are_exact():
    for seed in (2**63 - 1, 2**63, 2**64 - 1):
        stream = DeviceStreams(seed, 99_999).get(PROFILE_ASSIGN)
        draws = [stream.random() for _ in range(130)]
        ref = substream(seed, 99_999, PROFILE_ASSIGN).random(130)
        assert np.array_equal(np.array(draws), ref)


def test_streams_sharing_one_source_stay_independent():
    source = block_source()
    shared = [DeviceStreams(5, d, source) for d in range(3)]
    drawn = {(d, p): [] for d in range(3) for p in range(N_PURPOSES)}
    for i in range(200):
        d, p = i % 3, (i * 7) % N_PURPOSES
        drawn[d, p].append(shared[d].get(p).random())
    for (d, p), got in drawn.items():
        assert np.array_equal(np.array(got), substream(5, d, p).random(len(got)))


def test_unknown_purpose_rejected_by_device_streams():
    with pytest.raises(ValueError):
        DeviceStreams(42, 0).get(-1)
