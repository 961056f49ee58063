"""Named deterministic random streams.

Every stochastic component in the simulation draws from its own named stream
so that (a) runs are reproducible from a single root seed, and (b) changing
how one component consumes randomness does not perturb any other component's
draws.  Streams are derived with :class:`numpy.random.SeedSequence` spawning
keyed by a stable hash of the stream name.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from itertools import chain, repeat
from typing import Callable, Dict, Iterator

import numpy as np


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 32-bit integer key.

    Python's built-in ``hash`` is salted per process, so we use CRC32 which is
    stable across runs and platforms.
    """
    return zlib.crc32(name.encode("utf-8"))


#: Draws prefetched per (stream, distribution) block.  A numpy scalar draw
#: costs over a microsecond in interpreter/dispatch overhead; vectorized
#: blocks produce the same values draw-for-draw (numpy fills arrays from
#: the bit stream in index order) at a fraction of that.  A block is read
#: through a view: floats one by one, never a list of 512 float objects.
_BLOCK = 512


def _stream(streams: dict, seed: int, name: str) -> np.random.Generator:
    """The generator of stream ``name``, derived from the root seed on first use."""
    generator = streams.get(name)
    if generator is None:
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(_stable_key(name),))
        generator = streams[name] = np.random.Generator(np.random.PCG64(sequence))
    return generator


def _blocks(streams: dict, seed: int, name: str, method: str, params: tuple) -> Iterator[memoryview]:
    """``_BLOCK`` draws of stream ``name``'s ``method(*params)`` at a time, for ever.

    The stream is made on the first draw, not when the source is bound (numpy
    loads ``numpy.random`` on first use, and that belongs to the run, not to
    set-up); it is found through the streams' dictionary, not their owner, so
    no source holds its :class:`RandomStreams` in a cycle.
    """
    draw = getattr(_stream(streams, seed, name), method)
    while True:
        yield memoryview(draw(*params, _BLOCK))


#: The source of a noise factor that is switched off.
_ONES = repeat(1.0).__next__


class RandomStreams:
    """Factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed for the whole simulation.  Two :class:`RandomStreams` built
        from the same seed hand out identical streams for identical names,
        regardless of the order in which the streams are requested.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        # One draw source per (name, distribution, params), whichever
        # spelling draws: the ``*_draws`` methods hand it out, the scalar
        # methods call it once.  Values are identical to scalar numpy draws
        # as long as each stream is consumed through a single distribution
        # with fixed parameters (how every component here uses its
        # streams).  Mixing distributions on one stream stays deterministic,
        # but interleaves the bit stream differently than scalar draws would.
        self._sources: Dict[tuple, Callable[[], float]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always returns the same generator object, so a
        component can re-request its stream cheaply.
        """
        return _stream(self._streams, self.seed, name)

    def _draws(self, name: str, method: str, *params: float) -> Callable[[], float]:
        """The cached source of stream ``name``'s ``method(*params)`` draws."""
        key = (name, method) + params
        source = self._sources.get(key)
        if source is None:
            blocks = _blocks(self._streams, self.seed, name, method, params)
            source = self._sources[key] = chain.from_iterable(blocks).__next__
        return source

    def exponential_draws(self, name: str, mean: float) -> Callable[[], float]:
        """Source of exponential draws with the given mean from stream ``name``."""
        return self._draws(name, "exponential", mean)

    def exponential(self, name: str, mean: float) -> float:
        """One draw of :meth:`exponential_draws`."""
        return self._draws(name, "exponential", mean)()

    def lognormal_draws(self, name: str, sigma: float) -> Callable[[], float]:
        """Source of multiplicative lognormal noise factors with median 1.

        ``sigma`` is the standard deviation of the underlying normal; 0 yields
        exactly 1.0 and consumes nothing (useful to disable noise without
        branching in callers).
        """
        return self._draws(name, "lognormal", 0.0, sigma) if sigma > 0.0 else _ONES

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """One draw of :meth:`lognormal_draws`."""
        return self.lognormal_draws(name, sigma)()

    def choice_draws(self, name: str, weights) -> Callable[[], int]:
        """Source of indices drawn with probability proportional to ``weights``.

        Draw-for-draw identical to ``Generator.choice(len(weights),
        p=weights/total)`` (one uniform double inverted through the normalized
        cdf); every weight vector asked of one stream inverts the same uniforms.
        """
        key = (name, "choice", tuple(weights))
        source = self._sources.get(key)
        if source is None:
            array = np.asarray(weights, dtype=float)
            total = array.sum()
            if total <= 0:
                raise ValueError("choice_index needs at least one positive weight")
            # Mirror numpy's Generator.choice exactly: normalize, cumsum,
            # re-normalize the cdf so its last entry is exactly 1.0.
            normalized = (array / total).cumsum()
            normalized /= normalized[-1]
            source = self._sources[key] = map(
                bisect_right, repeat(normalized.tolist()), iter(self._draws(name, "random"), None)
            ).__next__
        return source

    def choice_index(self, name: str, weights) -> int:
        """One draw of :meth:`choice_draws`."""
        return self.choice_draws(name, weights)()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RandomStreams(seed={}, streams={})".format(
            self.seed, sorted(self._streams)
        )
