"""Counter-based random streams with deterministic substream derivation.

Every consumer derives its own stream from an experiment seed and a tuple of
labels (strings / integers), so results are bit-reproducible regardless of
execution order or worker count. Philox is counter-based: streams with
distinct keys are statistically independent.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError


class RngStream:
    """Single-owner random stream. Derive children with substream()."""

    def __init__(self, seed, _key_bytes: bytes | None = None):
        if _key_bytes is None:
            if not isinstance(seed, (int, np.integer)):
                raise TypeError("seed must be an integer")
            if not -2 ** 127 <= seed < 2 ** 127:
                raise DomainError(f"seed must fit in 128 signed bits, got {seed}")
            _key_bytes = int(seed).to_bytes(16, "little", signed=True)
        self._key_bytes = _key_bytes
        key = int.from_bytes(_key_bytes, "little")
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def substream(self, *labels) -> "RngStream":
        h = hashlib.blake2b(self._key_bytes, digest_size=16)
        for lab in labels:
            h.update(repr(lab).encode())
            h.update(b"\x1f")
        return RngStream(None, _key_bytes=h.digest())

    def after_uniforms(self, m: int) -> "RngStream":
        """A copy of this stream positioned where this one will be after m
        more uniform draws; this stream does not move. Philox yields its
        64-bit words four per counter step, a uniform takes one word, and
        advance() drops the words left of the current step."""
        twin = RngStream(None, _key_bytes=self._key_bytes)
        bits = twin.generator.bit_generator
        bits.state = self.generator.bit_generator.state
        buffered = min(m, 4 - bits.state["buffer_pos"])
        bits.random_raw(buffered)
        if m > buffered:
            bits.advance((m - buffered) // 4)
            bits.random_raw((m - buffered) % 4)
        return twin

    def uniform(self, size=None):
        return self.generator.random(size)

    def exponential(self, size=None):
        return self.generator.standard_exponential(size)
