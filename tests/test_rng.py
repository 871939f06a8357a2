import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import posediff
from posediff.rng import RngStream, hypothesis_normals, stream_id


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


def test_cli_import_does_not_load_numpy_random():
    # numpy.random is loaded on the first draw, not by an import.
    src = str(Path(posediff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, posediff.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    assert done.stdout.strip() == "False"
