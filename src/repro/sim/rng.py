"""Named, seedable random streams.

Every stochastic element of an experiment (traffic, clock jitter, retry
backoff, ...) draws from its own :class:`RandomStream`, derived from one
root seed.  Changing one component's draw pattern then never perturbs the
others — essential for the ablation benchmarks, where e.g. compaction is
switched off but the offered traffic must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A thin, explicit wrapper over :class:`random.Random`.

    Exposes only the draws the library actually uses; keeping the surface
    small makes it easy to verify determinism in tests.
    """

    def __init__(self, seed: int, name: str = "stream") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def bound_random(self) -> Callable[[], float]:
        """The generator's own ``random``: the same draws as
        :meth:`random`, from the same state, without this wrapper's
        Python frame.  For loops that draw once per (tick, node)."""
        return self._random.random

    def choice(self, options: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(options)

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        self._random.shuffle(items)

    def sample(self, population: Sequence[T], count: int) -> list[T]:
        """``count`` distinct elements drawn without replacement."""
        return self._random.sample(population, count)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival with the given rate."""
        return self._random.expovariate(rate)

    def permutation(self, n: int) -> list[int]:
        """A uniformly random permutation of ``range(n)``."""
        items = list(range(n))
        self._random.shuffle(items)
        return items

    def getstate(self) -> tuple:
        """The underlying generator state (for checkpoint verification).

        :class:`random.Random` pickles its exact Mersenne-Twister state,
        so streams survive checkpoint/restore bit-for-bit; this accessor
        lets tests and the snapshot manifest assert that directly.
        """
        return self._random.getstate()

    def setstate(self, state: tuple) -> None:
        """Restore a state captured by :meth:`getstate`."""
        self._random.setstate(state)

    def fork(self, name: str) -> "RandomStream":
        """Derive an independent child stream; deterministic in (seed, name)."""
        return RandomStream(_derive_seed(self.seed, f"{self.name}/{name}"),
                            name=f"{self.name}/{name}")


class SeedSequence:
    """Factory handing out named streams derived from a single root seed."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._issued: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* object so that
        components sharing a name share draw state intentionally.
        """
        if name not in self._issued:
            self._issued[name] = RandomStream(
                _derive_seed(self.root_seed, name), name=name
            )
        return self._issued[name]
