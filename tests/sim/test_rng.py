"""Tests for the named random stream factory."""

import gc
import os
import subprocess
import sys
import weakref
import zlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams


def test_same_seed_same_stream_same_draws():
    a = RandomStreams(seed=42)
    b = RandomStreams(seed=42)
    assert a.stream("x").random(5).tolist() == b.stream("x").random(5).tolist()


def test_streams_are_independent_of_request_order():
    a = RandomStreams(seed=42)
    b = RandomStreams(seed=42)
    # Request in different orders; draws per stream must match anyway.
    a_first = a.stream("alpha").random(3).tolist()
    a_second = a.stream("beta").random(3).tolist()
    b_second = b.stream("beta").random(3).tolist()
    b_first = b.stream("alpha").random(3).tolist()
    assert a_first == b_first
    assert a_second == b_second


def test_different_names_differ():
    streams = RandomStreams(seed=1)
    assert streams.stream("a").random(4).tolist() != streams.stream("b").random(4).tolist()


def test_different_seeds_differ():
    a = RandomStreams(seed=1)
    b = RandomStreams(seed=2)
    assert a.stream("x").random(4).tolist() != b.stream("x").random(4).tolist()


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("x") is streams.stream("x")


def test_exponential_mean():
    streams = RandomStreams(seed=7)
    draws = [streams.exponential("e", 2.0) for _ in range(4000)]
    assert abs(np.mean(draws) - 2.0) < 0.15
    assert all(d >= 0 for d in draws)


def test_lognormal_factor_median_near_one():
    streams = RandomStreams(seed=7)
    draws = [streams.lognormal_factor("ln", 0.5) for _ in range(4000)]
    assert abs(np.median(draws) - 1.0) < 0.06
    assert all(d > 0 for d in draws)


def test_lognormal_factor_zero_sigma_is_exact_one():
    streams = RandomStreams(seed=7)
    assert streams.lognormal_factor("ln", 0.0) == 1.0
    assert streams.lognormal_factor("ln", -1.0) == 1.0


def test_choice_index_respects_weights():
    streams = RandomStreams(seed=11)
    counts = [0, 0]
    for _ in range(2000):
        counts[streams.choice_index("c", [3.0, 1.0])] += 1
    ratio = counts[0] / counts[1]
    assert 2.2 < ratio < 4.0


def test_choice_index_zero_weights_rejected():
    streams = RandomStreams(seed=11)
    try:
        streams.choice_index("c", [0.0, 0.0])
    except ValueError:
        return
    raise AssertionError("expected ValueError")


# ----------------------------------------------------------------------
# Draw sources are the scalar draws
# ----------------------------------------------------------------------
class ReferenceStreams:
    """The scalar draws as they were before sources: one generator per
    stream, consumed in 512-value blocks kept per (stream, distribution,
    parameters) — every weight vector of a stream inverting one block of
    uniforms."""

    def __init__(self, seed):
        self.seed = seed
        self.streams = {}
        self.blocks = {}

    def _next(self, key, draw_block):
        block = self.blocks.get(key)
        if block is None or block[1] >= 512:
            name = key[0]
            if name not in self.streams:
                sequence = np.random.SeedSequence(
                    self.seed, spawn_key=(zlib.crc32(name.encode("utf-8")),)
                )
                self.streams[name] = np.random.Generator(np.random.PCG64(sequence))
            block = self.blocks[key] = [draw_block(self.streams[name]).tolist(), 0]
        block[1] += 1
        return block[0][block[1] - 1]

    def exponential(self, name, mean):
        return self._next((name, "exp", mean), lambda g: g.exponential(mean, size=512))

    def lognormal(self, name, sigma):
        if sigma <= 0.0:
            return 1.0
        return self._next(
            (name, "logn", sigma), lambda g: g.lognormal(mean=0.0, sigma=sigma, size=512)
        )

    def choice(self, name, weights):
        cdf = (np.asarray(weights, dtype=float) / np.sum(weights)).cumsum()
        cdf /= cdf[-1]
        return bisect_right(cdf.tolist(), self._next((name, "random"), lambda g: g.random(512)))


#: (reference draw, scalar spelling, source spelling) per distribution.
DISTRIBUTIONS = {
    "exponential": ("exponential", "exponential", "exponential_draws"),
    "lognormal": ("lognormal", "lognormal_factor", "lognormal_draws"),
    "choice": ("choice", "choice_index", "choice_draws"),
}
PARAMETERS = {
    "exponential": st.sampled_from([0.5, 2.0]),
    "lognormal": st.sampled_from([0.0, 0.1, 0.35]),
    "choice": st.sampled_from([(1.0,), (3.0, 1.0), (0.2, 0.0, 0.5, 0.3)]),
}
draw_runs = st.sampled_from(sorted(DISTRIBUTIONS)).flatmap(
    lambda distribution: st.tuples(
        st.just(distribution),
        PARAMETERS[distribution],
        st.sampled_from(["a", "b"]),  # stream
        st.booleans(),  # through a bound source, or the scalar method
        st.sampled_from([1, 2, 7, 300, 520]),  # draws in a row
    )
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), runs=st.lists(draw_runs, min_size=1, max_size=12))
def test_bound_sources_and_scalar_calls_draw_one_buffer_in_order(seed, runs):
    streams, reference = RandomStreams(seed), ReferenceStreams(seed)
    for distribution, parameter, name, bound, count in runs:
        expected, scalar, source = DISTRIBUTIONS[distribution]
        if bound:
            draw = getattr(streams, source)(name, parameter)
            assert getattr(streams, source)(name, parameter) is draw  # one per key
        else:
            draw = lambda: getattr(streams, scalar)(name, parameter)  # noqa: E731
        for _ in range(count):
            assert draw() == getattr(reference, expected)(name, parameter)


def test_zero_sigma_source_yields_exactly_one_and_consumes_nothing():
    streams = RandomStreams(seed=7)
    one = streams.lognormal_draws("ln", 0.0)
    assert [one() for _ in range(600)] == [1.0] * 600
    assert streams._streams == {}
    fresh = RandomStreams(seed=7)
    assert streams.lognormal_factor("ln", 0.2) == fresh.lognormal_factor("ln", 0.2)


def test_draws_are_plain_python_numbers_not_numpy_scalars():
    # Blocks are read through a view of the numpy array; what comes out must
    # still be what `.tolist()` gave (numpy scalars would leak into exports).
    streams = RandomStreams(seed=5)
    assert type(streams.exponential("e", 2.0)) is float
    assert type(streams.lognormal_factor("l", 0.3)) is float
    assert type(streams.lognormal_factor("l", 0.0)) is float
    assert type(streams.choice_index("c", (1.0, 2.0))) is int


def test_streams_with_bound_sources_are_freed_by_refcounting_alone():
    # A source must not hold its RandomStreams in a cycle: a sharded run's
    # streams (and their 512-value blocks) would then outlive every repeat
    # until a full collection, which reads as peak RSS.
    enabled = gc.isenabled()
    gc.disable()
    try:
        streams = RandomStreams(seed=3)
        for draw in (
            streams.lognormal_draws("a", 0.2),
            streams.exponential_draws("a", 2.0),
            streams.choice_draws("b", (1.0, 2.0)),
        ):
            draw()
        gone = weakref.ref(streams)
        del streams
        assert gone() is None
        assert draw() in (0, 1)  # a source outlives its owner
    finally:
        if enabled:
            gc.enable()


def test_choice_draws_zero_weights_rejected():
    with pytest.raises(ValueError):
        RandomStreams(seed=11).choice_draws("c", [0.0, 0.0])


def test_building_a_bundle_creates_no_stream_until_the_first_draw():
    # The setup_s guard: numpy >= 2 loads numpy.random on first use, so a
    # stream made while sources are bound moves that import into set-up.
    probe = """
import sys
import numpy
from repro.experiments import build_bundle
bundle = build_bundle()
lazy = int(numpy.__version__.split(".")[0]) >= 2
assert bundle.rng._streams == {}, sorted(bundle.rng._streams)
assert not lazy or "numpy.random" not in sys.modules
query = bundle.factory.create(bundle.mixes["class3"], "class3", "client")
assert sorted(bundle.rng._streams) == ["demand:" + query.template, "mix:tpcc", "optimizer"]
assert "numpy.random" in sys.modules
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
