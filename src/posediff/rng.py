"""Counter-based random streams.

Every source of randomness in the package is an ``RngStream`` keyed by
``(seed, stream_id)``. Streams with distinct ids are statistically
independent and mutually reproducible regardless of draw order, which is
what makes sampling one hypothesis in isolation equal to sampling it as
part of a batch: each consumer derives its own stream id from stable
labels instead of sharing a sequential generator.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
from collections.abc import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
# How many (hyps, branch, label) keys ``hypothesis_normals`` keeps the
# row ids of. A K-step chain of the noisy oracle draws under 2K keys per
# branch and hypothesis range; a bench over K in {5, 10} under 20.
_ROW_ID_KEYS = 256


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
        # Philox's state at counter 0 with an empty output buffer, which
        # is where every stream starts; ``_rekey`` sets its key.
        self._start = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0],
                                 "key": [self.seed, self.sid]},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def _rekey(self, seed: int, sid: int) -> None:
        """Reset to the state of a fresh ``RngStream(seed, sid)``.

        Philox is counter-based: counter 0 under key ``[seed, sid]``
        with an empty output buffer is exactly where a new generator
        starts, so no object is built. The state setter copies the
        values, so the one dict this stream owns serves every re-key.
        """
        self.seed = int(seed) & _MASK64
        self.sid = int(sid) & _MASK64
        key = self._start["state"]["key"]
        key[0], key[1] = self.seed, self.sid
        self._gen.bit_generator.state = self._start

    def spawn(self, *parts: int | str) -> "RngStream":
        """Child stream whose id mixes this stream's id with ``parts``."""
        return RngStream(self.seed, stream_id(self.sid, *parts))

    def standard_normal(self, shape: tuple[int, ...] | int = (),
                        out: np.ndarray | None = None) -> np.ndarray:
        """Standard normals of ``shape``; given ``out``, a C-contiguous
        float64 array of that shape, they are written there and ``out``
        is returned."""
        return self._gen.standard_normal(shape, out=out)

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


_local = threading.local()


def _shared_stream() -> RngStream:
    """The calling thread's stream for ``hypothesis_normals``. Built on
    its first draw: numpy loads numpy.random lazily, and importing the
    CLI should not pay for it."""
    stream = getattr(_local, "stream", None)
    if stream is None:
        stream = _local.stream = RngStream(0)
    return stream


@functools.lru_cache(maxsize=_ROW_ID_KEYS, typed=True)
def _row_ids(hyps: range, branch: int, *label: int | str) -> tuple[int, ...]:
    """``stream_id(*label, h, branch)`` for each ``h`` in ``hyps``. They
    do not depend on the seed. ``typed`` keeps ``True`` apart from ``1``,
    so a bool part is refused on every call."""
    prefix = _absorb(hashlib.blake2b(digest_size=8), label)
    return tuple(_digest(_absorb(prefix.copy(), (h, branch))) for h in hyps)


class DrawScope:
    """The draws of ``hypothesis_normals`` held on one thread for reuse;
    see ``serve_repeats``. While ``keep`` is set, as it is at first,
    every new draw is held; cleared, new draws pass through, and what is
    held is still served.
    """

    def __init__(self):
        self.keep = True
        self._held: dict[tuple, np.ndarray] = {}


@contextlib.contextmanager
def serve_repeats() -> Iterator[DrawScope]:
    """A scope in which ``hypothesis_normals`` on the calling thread
    serves a key it drew, while the scope's ``keep`` was set, from that
    first draw.

    A row is a pure function of its key, so a served draw equals a new
    one bitwise. Held draws are read-only, and they are dropped when the
    scope ends. Other threads draw as they do outside it.
    """
    scope = DrawScope()
    outer, _local.scope = getattr(_local, "scope", None), scope
    try:
        yield scope
    finally:
        _local.scope = outer


def hypothesis_normals(seed: int, hyps: range, shape: tuple[int, ...],
                       *label: int | str, branch: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals of shape ``(len(hyps),) + shape``, one stream each.

    Row i is hypothesis ``hyps[i]``, drawn from
    ``RngStream(seed, stream_id(*label, hyps[i], branch))``, so a row
    depends only on its global hypothesis index: ``range(a, b)`` gives
    exactly rows ``a:b`` of ``range(0, b)``.

    The rows are drawn by re-keying one stream that every call on the
    calling thread shares, which gives the same numbers as fresh streams
    without building any. Each thread has its own, so calls from several
    threads may overlap. The row ids of the last 256 ``(hyps, branch,
    label)`` keys are kept: every sequence of a dataset draws under the
    same keys with its own seed, so each id is hashed once.

    Given ``out``, a writable float64 array of the result's shape whose
    rows are C-contiguous, the rows are drawn into it and it is
    returned. Inside a ``serve_repeats`` scope of the calling thread, a
    key drawn before while the scope's ``keep`` was set is served from
    that draw, and a new draw while ``keep`` is set is held: either way
    the held array is returned as it is, read-only, and ``out`` is left
    untouched.
    """
    full = (len(hyps),) + tuple(shape)
    if out is not None and (out.shape != full or out.dtype != np.float64
                            or not out.flags.writeable):
        raise ValueError(f"out must be a writable float64 array of shape "
                         f"{full}, got {out.dtype} {out.shape}, writable "
                         f"{out.flags.writeable}")
    ids = _row_ids(hyps, branch, *label)
    scope = getattr(_local, "scope", None)
    key = (seed, ids, tuple(shape))
    if scope is not None and key in scope._held:
        return scope._held[key]
    hold = scope is not None and scope.keep
    if out is None or hold:
        out = np.empty(full)
    stream = _shared_stream()
    for i, sid in enumerate(ids):
        stream._rekey(seed, sid)
        # ``out[i, ...]`` is a view even where ``out[i]`` is a scalar
        stream.standard_normal(shape, out=out[i, ...])
    if hold:
        out.setflags(write=False)
        scope._held[key] = out
    return out
