import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import posediff
from posediff.rng import (RngStream, hypothesis_normals, serve_repeats,
                          stream_id)


def test_same_key_same_draws():
    a = RngStream(seed=42, sid=stream_id("x", 3))
    b = RngStream(seed=42, sid=stream_id("x", 3))
    assert np.array_equal(a.standard_normal((100,)), b.standard_normal((100,)))


def test_different_stream_ids_differ():
    a = RngStream(seed=42, sid=stream_id("x", 0))
    b = RngStream(seed=42, sid=stream_id("x", 1))
    assert not np.array_equal(a.standard_normal((100,)),
                              b.standard_normal((100,)))


def test_distinct_streams_uncorrelated():
    n = 10_000
    a = RngStream(seed=7, sid=stream_id("corr", 0)).standard_normal((n,))
    b = RngStream(seed=7, sid=stream_id("corr", 1)).standard_normal((n,))
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_draw_order_independent_of_chunking():
    whole = RngStream(seed=1, sid=5).standard_normal((64,))
    s = RngStream(seed=1, sid=5)
    parts = np.concatenate([s.standard_normal((16,)) for _ in range(4)])
    assert np.array_equal(whole, parts)


def test_stream_id_type_tagged():
    # the integer 1 and the string "1" must not collide
    assert stream_id(1) != stream_id("1")
    assert stream_id("a", 1) != stream_id("a1")


def test_stream_id_rejects_ambiguous_types():
    with pytest.raises(TypeError):
        stream_id(1.5)
    with pytest.raises(TypeError):
        stream_id(True)


@given(st.lists(st.one_of(st.integers(), st.text(max_size=8)), min_size=1,
                max_size=4))
def test_stream_id_in_range(parts):
    sid = stream_id(*parts)
    assert 0 <= sid < 2 ** 64


def test_stream_id_takes_integers_beyond_128_bits():
    ids = {stream_id(n) for n in (2 ** 127 - 1, 2 ** 127, 2 ** 200,
                                  -2 ** 127, -2 ** 127 - 1)}
    assert len(ids) == 5 and all(0 <= sid < 2 ** 64 for sid in ids)
    # the 16-byte encoding of every smaller integer is unchanged
    assert stream_id(5) == int.from_bytes(hashlib.blake2b(
        b"i" + (5).to_bytes(16, "little", signed=True),
        digest_size=8).digest(), "little")


def test_spawn_differs_from_parent():
    parent = RngStream(seed=3, sid=stream_id("p"))
    child = parent.spawn("c")
    assert child.sid != parent.sid
    a = RngStream(seed=3, sid=parent.sid).standard_normal((32,))
    b = RngStream(seed=3, sid=child.sid).standard_normal((32,))
    assert not np.array_equal(a, b)


def test_spawn_deterministic():
    a = RngStream(seed=3, sid=stream_id("p")).spawn("c", 2)
    b = RngStream(seed=3, sid=stream_id("p")).spawn("c", 2)
    assert a.sid == b.sid


def test_integers_half_open():
    s = RngStream(seed=0, sid=1)
    draws = s.integers(0, 5, (10_000,))
    assert draws.min() >= 0 and draws.max() <= 4
    # every value in the half-open range appears
    assert set(np.unique(draws)) == {0, 1, 2, 3, 4}


def test_permutation_is_permutation():
    s = RngStream(seed=9, sid=2)
    p = s.permutation(50)
    assert sorted(p.tolist()) == list(range(50))


def test_unit_vectors_unit_norm():
    s = RngStream(seed=4, sid=stream_id("uv"))
    v = s.unit_vectors((100,))
    assert v.shape == (100, 3)
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)


def test_unit_vectors_scalar_shape():
    s = RngStream(seed=4, sid=stream_id("uv"))
    v = s.unit_vectors(())
    assert v.shape == (3,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_unit_vectors_cover_directions():
    # mean of many unit vectors should be near zero in every axis
    s = RngStream(seed=11, sid=1)
    v = s.unit_vectors((20_000,))
    assert np.abs(v.mean(axis=0)).max() < 0.02


@pytest.mark.parametrize("seed, label, shape, branch", [
    (0, ("sampler_init",), (2, 3, 3), 0),
    (7, ("sampler_ddim", 640), (4, 17, 3), 1),
    (2 ** 40 + 3, ("oracle_noisy", 0), (1, 2, 3), 0),
    (5, ("a", 1, "b"), (), 1),
])
def test_hypothesis_normals_match_fresh_streams(seed, label, shape, branch):
    hyps = range(3, 8)
    out = hypothesis_normals(seed, hyps, shape, *label, branch=branch)
    assert out.shape == (len(hyps),) + shape
    for i, h in enumerate(hyps):
        ref = RngStream(seed, stream_id(*label, h, branch)).standard_normal(shape)
        assert np.array_equal(out[i], ref)


@given(st.integers(0, 2 ** 32), st.integers(0, 6), st.integers(0, 6))
def test_hypothesis_normals_split_is_slice(seed, a, extra):
    # the batch-split promise: hypotheses a..b alone are rows a:b of 0..b
    b = a + extra
    whole = hypothesis_normals(seed, range(0, b), (2, 3), "split", 4, branch=1)
    part = hypothesis_normals(seed, range(a, b), (2, 3), "split", 4, branch=1)
    assert np.array_equal(part, whole[a:b])


@pytest.mark.parametrize("first_shape", [(1,), (3,), (5, 7)])
def test_hypothesis_normals_after_a_part_used_buffer(first_shape):
    # An odd-sized draw leaves the shared Philox's output buffer part
    # used; the next call must still start every row on a fresh stream.
    hypothesis_normals(11, range(2), first_shape, "unrelated", branch=0)
    hyps = range(1, 4)
    out = hypothesis_normals(3, hyps, (2, 3), "after", 9, branch=1)
    for i, h in enumerate(hyps):
        ref = RngStream(3, stream_id("after", 9, h, 1)).standard_normal((2, 3))
        assert np.array_equal(out[i], ref)


def test_hypothesis_normals_match_fresh_streams_past_many_keys():
    # 600 distinct (label, hyps, branch) keys, more than any cache of
    # row ids holds, each drawn under two seeds, one of them near 2^64;
    # then the first keys again, long evicted
    keys = [(("many", k), range(k % 3, k % 3 + 2), k % 2) for k in range(600)]
    for key in keys + keys[:20]:
        label, hyps, branch = key
        for seed in (5, 2 ** 64 - 1):
            out = hypothesis_normals(seed, hyps, (3,), *label, branch=branch)
            for i, h in enumerate(hyps):
                ref = RngStream(seed, stream_id(*label, h, branch))
                assert np.array_equal(out[i], ref.standard_normal((3,))), key


def test_hypothesis_normals_from_threads_match_serial_calls():
    # each thread re-keys a stream of its own, so threads drawing at once
    # get exactly what the same calls give one after the other; more
    # threads than cores, switching often
    shape = (64, 17, 3)  # large enough that numpy fills without the GIL
    calls = [[(seed, range(h, h + 8), f"thread {seed}") for h in (0, 5, 20)]
             for seed in range(4)]
    want = [[hypothesis_normals(seed, hyps, shape, label, branch=0)
             for seed, hyps, label in thread] for thread in calls]
    barrier = threading.Barrier(len(calls))
    got = [None] * len(calls)

    def draw(i):
        barrier.wait(timeout=60)
        got[i] = [hypothesis_normals(seed, hyps, shape, label, branch=0)
                  for _ in range(4) for seed, hyps, label in calls[i]]

    threads = [threading.Thread(target=draw, args=(i,))
               for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, rows in enumerate(got):
        assert len(rows) == 4 * len(want[i])
        for j, a in enumerate(rows):
            assert np.array_equal(a, want[i][j % len(want[i])]), (i, j)


def test_cli_import_does_not_load_numpy_random():
    # numpy.random is loaded on the first draw, not by an import.
    src = str(Path(posediff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, posediff.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    assert done.stdout.strip() == "False"


def _count_draws(monkeypatch) -> list[int]:
    """A one-item list counting ``RngStream.standard_normal`` calls."""
    calls = [0]
    real = RngStream.standard_normal

    def counted(self, shape=(), out=None):
        calls[0] += 1
        return real(self, shape, out=out)
    monkeypatch.setattr(RngStream, "standard_normal", counted)
    return calls


def _draw(label=("served", 7), seed=9):
    return hypothesis_normals(seed, range(2, 6), (4, 3), *label, branch=1)


def test_served_draw_equals_a_new_one_and_is_read_only(monkeypatch):
    outside = _draw()
    calls = _count_draws(monkeypatch)
    with serve_repeats():
        first = _draw()
        assert calls[0] == 4  # one per row
        again = _draw()
        assert calls[0] == 4 and again is first
    assert np.array_equal(first, outside)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0, 0] = 0.0
    # another seed, shape, hypothesis range or branch is another key
    with serve_repeats():
        kept = _draw()
        assert _draw(seed=10) is not kept
        for hyps, shape, branch in ((range(2, 5), (4, 3), 1),
                                    (range(2, 6), (3, 4), 1),
                                    (range(2, 6), (4, 3), 0)):
            other = hypothesis_normals(9, hyps, shape, "served", 7,
                                       branch=branch)
            assert other is not kept


def test_scope_holds_what_it_draws_while_keep_is_set(monkeypatch):
    new = _draw(("keys", 1)), _draw(("keys", 2))
    calls = _count_draws(monkeypatch)
    with serve_repeats() as served:
        assert served.keep  # holds from the start
        held = _draw(("keys", 1))
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0, 0] = 0.0
        served.keep = False
        fresh = _draw(("keys", 2))
        assert fresh.flags.writeable and np.array_equal(fresh, new[1])
        before = calls[0]
        # what was held is still served; what passed is drawn anew
        assert _draw(("keys", 1)) is held
        again = _draw(("keys", 2))
        assert again is not fresh and again.flags.writeable
        assert calls[0] == before + 4
    assert np.array_equal(held, new[0])


def test_nothing_is_served_after_the_scope_or_on_another_thread(monkeypatch):
    calls = _count_draws(monkeypatch)
    with serve_repeats():
        inside = _draw()
        other = []
        thread = threading.Thread(target=lambda: other.append(_draw()))
        thread.start()
        thread.join(timeout=60)
        assert calls[0] == 8
        assert other[0] is not inside and other[0].flags.writeable
        assert np.array_equal(other[0], inside)
        with serve_repeats():  # a scope within restores the outer one
            assert _draw() is not inside
        assert _draw() is inside
    after = _draw()
    assert after is not inside and after.flags.writeable
    assert calls[0] == 16 and np.array_equal(after, inside)


def _normals(label, out=None, shape=(4, 3)):
    return hypothesis_normals(9, range(3, 7), shape, "into", label,
                              branch=1, out=out)


@pytest.mark.parametrize("shape", [(), (1,), (5,), (4, 3), (2, 17, 3)])
def test_drawing_into_out_equals_a_new_draw(shape):
    # () is the shape where out[i] is a scalar, not a view of the row
    want = _normals(1, shape=shape)
    out = np.full(want.shape, np.nan)
    assert _normals(1, out, shape) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("shape", [(), (4, 3)])
def test_held_draws_are_served_as_they_are_and_leave_out_alone(shape):
    want = [_normals(label, shape=shape) for label in (1, 2)]
    with serve_repeats() as served:
        out = np.full(want[0].shape, np.nan)
        # keep is set: a new draw is held, not written into out
        held = _normals(1, out, shape)
        assert held is not out and not held.flags.writeable
        assert np.array_equal(held, want[0])
        assert _normals(1, out, shape) is held
        served.keep = False
        # what was held is still served; a new key is drawn into out
        assert _normals(1, out, shape) is held
        assert np.isnan(out).all()
        assert _normals(2, out, shape) is out
        assert np.array_equal(out, want[1])


@pytest.mark.parametrize("bad", ["shape", "rows", "dtype", "read-only"])
def test_a_bad_out_is_refused_before_any_draw(monkeypatch, bad):
    out = {"shape": lambda: np.empty((4, 3, 4)),
           "rows": lambda: np.empty((5, 4, 3)),
           "dtype": lambda: np.empty((4, 4, 3), np.float32),
           "read-only": lambda: np.empty((4, 4, 3))}[bad]()
    out.setflags(write=bad != "read-only")
    calls = _count_draws(monkeypatch)
    with pytest.raises(ValueError, match="^out must be a writable float64 "
                                         r"array of shape \(4, 4, 3\)"):
        _normals(1, out)
    assert calls[0] == 0
