"""Counter-based random streams.

Every source of randomness in the package is an ``RngStream`` keyed by
``(seed, stream_id)``. Streams with distinct ids are statistically
independent and mutually reproducible regardless of draw order, which is
what makes sampling one hypothesis in isolation equal to sampling it as
part of a batch: each consumer derives its own stream id from stable
labels instead of sharing a sequential generator.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
# Philox's counter and buffer at the start of every stream. The state
# setter copies them, so one read-only array serves every re-key.
_ZEROS4 = np.zeros(4, dtype=np.uint64)
_ZEROS4.setflags(write=False)


def stream_id(*parts: int | str) -> int:
    """Derive a stable 64-bit stream id from a label tuple.

    Accepts a mix of ints and strings. The encoding is injective (type
    tags plus terminators), so ("a", 1) and ("a1",) cannot collide by
    construction, only by hash.
    """
    return _digest(_absorb(hashlib.blake2b(digest_size=8), parts))


def _absorb(h, parts):
    """Feed the encoding of ``parts`` into the hash ``h``; returns ``h``.
    ``stream_id(*a, *b)`` is the digest of ``a`` absorbed, then ``b``."""
    for part in parts:
        if isinstance(part, (bool, float)):
            raise TypeError(f"stream_id parts must be int or str, got {part!r}")
        if isinstance(part, (int, np.integer)):
            try:
                h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
            except OverflowError:  # beyond 128 bits: decimal, tagged apart
                h.update(b"I" + str(int(part)).encode("ascii") + b"\x00")
        elif isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        else:
            raise TypeError(f"stream_id parts must be int or str, got {part!r}")
    return h


def _digest(h) -> int:
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """A Philox-backed generator identified by (seed, stream id).

    Two instances built from the same pair produce identical draw
    sequences; instances differing in either component are independent.
    """

    def __init__(self, seed: int, sid: int = 0):
        self.seed = int(seed) & _MASK64
        self.sid = int(sid) & _MASK64
        key = np.array([self.seed, self.sid], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def _rekey(self, seed: int, sid: int) -> None:
        """Reset to the state of a fresh ``RngStream(seed, sid)``.

        Philox is counter-based: counter 0 under key ``[seed, sid]``
        with an empty output buffer is exactly where a new generator
        starts, so no object is built.
        """
        self.seed = int(seed) & _MASK64
        self.sid = int(sid) & _MASK64
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4,
                      "key": np.array([self.seed, self.sid], dtype=np.uint64)},
            "buffer": _ZEROS4, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}

    def spawn(self, *parts: int | str) -> "RngStream":
        """Child stream whose id mixes this stream's id with ``parts``."""
        return RngStream(self.seed, stream_id(self.sid, *parts))

    def standard_normal(self, shape: tuple[int, ...] | int = ()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float,
                shape: tuple[int, ...] | int = ()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int,
                 shape: tuple[int, ...] | int = ()) -> np.ndarray:
        """Uniform integers in [low, high), matching numpy's convention."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def unit_vectors(self, shape: tuple[int, ...] = ()) -> np.ndarray:
        """Uniform directions on the sphere, shape ``shape + (3,)``."""
        v = self._gen.standard_normal(shape + (3,)).reshape(-1, 3)
        norm = np.linalg.norm(v, axis=1)
        # A zero draw has measure zero but would poison the whole batch.
        bad = norm < 1e-12
        while np.any(bad):
            v[bad] = self._gen.standard_normal((int(bad.sum()), 3))
            norm = np.linalg.norm(v, axis=1)
            bad = norm < 1e-12
        return (v / norm[:, None]).reshape(shape + (3,))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, sid={self.sid})"


@functools.cache
def _shared_stream() -> RngStream:
    # Built on first use: numpy loads numpy.random lazily, and importing
    # the CLI should not pay for it.
    return RngStream(0)


def hypothesis_normals(seed: int, hyps: range, shape: tuple[int, ...],
                       *label: int | str, branch: int) -> np.ndarray:
    """Standard normals of shape ``(len(hyps),) + shape``, one stream each.

    Row i is hypothesis ``hyps[i]``, drawn from
    ``RngStream(seed, stream_id(*label, hyps[i], branch))``, so a row
    depends only on its global hypothesis index: ``range(a, b)`` gives
    exactly rows ``a:b`` of ``range(0, b)``.

    The rows are drawn by re-keying one stream shared by every call,
    which gives the same numbers as fresh streams without building any.
    So the function is not reentrant; the package starts no threads.
    """
    stream = _shared_stream()
    prefix = _absorb(hashlib.blake2b(digest_size=8), label)
    out = np.empty((len(hyps),) + shape)
    for i, h in enumerate(hyps):
        stream._rekey(seed, _digest(_absorb(prefix.copy(), (h, branch))))
        out[i] = stream.standard_normal(shape)
    return out
