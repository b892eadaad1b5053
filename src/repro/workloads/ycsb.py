"""YCSB-style workload generation with BLOB payloads (Section V-B).

The paper runs YCSB with payloads of 120 B, 100 KB, 10 MB, a random mix
of 4 KB–10 MB, and 1 GB, at a 50 % read ratio, single-threaded, with the
working set in memory.  Keys follow the standard YCSB Zipfian
distribution (theta 0.99 by default).

Payload bytes are real but generated cheaply: one random base buffer per
workload, with a per-operation stamp so every payload is distinct without
regenerating megabytes of random data per op.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterator


def zipf_sampler(n: int, theta: float, rng: random.Random) -> Callable[[], int]:
    """Standard YCSB Zipfian generator over ``[0, n)``.

    Uses the Gray et al. rejection-free method with precomputed
    constants, like YCSB's ``ZipfianGenerator``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if theta <= 0 or theta >= 1:
        raise ValueError("theta must be in (0, 1)")
    zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    zeta2 = 1.0 + 2.0 ** -theta
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)

    def sample() -> int:
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < zeta2:
            return 1
        return int(n * (eta * u - eta + 1.0) ** alpha)

    return sample


@dataclass
class YcsbConfig:
    """One YCSB experiment configuration."""

    n_records: int = 1000
    #: Fixed payload bytes, or a (min, max) range for the mixed workload.
    payload: int | tuple[int, int] = 100 * 1024
    read_ratio: float = 0.5
    zipf_theta: float = 0.99
    seed: int = 42

    def payload_bounds(self) -> tuple[int, int]:
        if isinstance(self.payload, tuple):
            return self.payload
        return self.payload, self.payload

    @property
    def max_payload(self) -> int:
        return self.payload_bounds()[1]

    @property
    def mean_payload(self) -> float:
        lo, hi = self.payload_bounds()
        return (lo + hi) / 2


class YcsbWorkload:
    """Generates keys, payloads, and operation streams."""

    def __init__(self, config: YcsbConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._zipf = zipf_sampler(config.n_records, config.zipf_theta,
                                  self._rng)
        # One random base buffer; per-op payloads stamp a unique header.
        self._base = random.Random(config.seed ^ 0x5EED).randbytes(
            min(self.config.max_payload, 1 << 20))
        self._stamp = 0

    def key(self, index: int) -> bytes:
        return b"user%010d" % index

    def payload_for(self, index: int) -> bytes:
        """Deterministic, distinct payload for one operation."""
        lo, hi = self.config.payload_bounds()
        size = lo if lo == hi else self._rng.randint(lo, hi)
        self._stamp += 1
        stamp = struct.pack(">IQ", index & 0xFFFFFFFF, self._stamp)
        if size <= len(stamp):
            return stamp[:size]
        # ``(stamp + body * reps)[:size]``, built with one copy.
        body = self._base
        full, tail = divmod(size - len(stamp), len(body))
        return b"".join((stamp, *(body,) * full, memoryview(body)[:tail]))

    def load_phase(self) -> Iterator[tuple[bytes, bytes]]:
        """Initial dataset: every record inserted once."""
        for i in range(self.config.n_records):
            yield self.key(i), self.payload_for(i)

    def operations(self, n_ops: int) -> Iterator[tuple[str, bytes, bytes | None]]:
        """Benchmark phase: ``(op, key, payload-or-None)`` tuples.

        ``read`` returns the BLOB; ``write`` replaces it entirely (the
        paper: "most applications primarily interact with entire BLOBs").
        """
        for _ in range(n_ops):
            index = self._zipf()
            if self._rng.random() < self.config.read_ratio:
                yield "read", self.key(index), None
            else:
                yield "write", self.key(index), self.payload_for(index)
