import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.core import PoseSeq2D, PoseSeq3D
from posediff.errors import PoseFileParseError, PoseFileSchemaError
from posediff.poseio import load_poses, save_poses


def _write(tmp_path, lines):
    path = tmp_path / "pose.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_round_trip_3d(tmp_path):
    rng = np.random.default_rng(0)
    p = PoseSeq3D(rng.normal(scale=1234.5, size=(3, 4, 3)))
    path = tmp_path / "p.jsonl"
    save_poses(p, path)
    out = load_poses(path)
    assert isinstance(out, PoseSeq3D)
    assert np.array_equal(out.joints, p.joints)


def test_round_trip_2d(tmp_path):
    p = PoseSeq2D(np.array([[[0.1, 0.2], [1e-17, 123456.789]]]))
    path = tmp_path / "p.jsonl"
    save_poses(p, path)
    assert np.array_equal(load_poses(path).joints, p.joints)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_round_trip_bit_identical(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    p = PoseSeq3D(rng.normal(scale=10.0 ** rng.integers(-3, 6),
                             size=(2, 3, 3)))
    path = tmp_path_factory.mktemp("io") / "p.jsonl"
    save_poses(p, path)
    assert np.array_equal(load_poses(path).joints, p.joints)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(PoseFileParseError):
        load_poses(path)


def test_header_only_is_parse_error(tmp_path):
    path = _write(tmp_path, ['{"J": 2, "dims": 3}'])
    with pytest.raises(PoseFileParseError):
        load_poses(path)


def test_wrong_coord_count_is_schema_error(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"frame": 0, "joints": [[1.0, 2.0]]}',
    ])
    with pytest.raises(PoseFileSchemaError) as info:
        load_poses(path)
    assert info.value.line == 2
    assert str(info.value).startswith(f"line 2: {path}: ")


def test_wrong_joint_count_is_schema_error(tmp_path):
    path = _write(tmp_path, [
        '{"J": 2, "dims": 3}',
        '{"frame": 0, "joints": [[1.0, 2.0, 3.0]]}',
    ])
    with pytest.raises(PoseFileSchemaError) as info:
        load_poses(path)
    assert str(info.value).startswith(f"line 2: {path}: expected 2 joints")


def test_out_of_order_frames_rejected(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"frame": 1, "joints": [[1.0, 2.0, 3.0]]}',
    ])
    with pytest.raises(PoseFileSchemaError) as info:
        load_poses(path)
    assert str(info.value).startswith(f"line 2: {path}: ")


def test_malformed_json_names_line(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"frame": 0, "joints": [[1.0, 2.0, 3.0]]}',
        'not json at all',
    ])
    with pytest.raises(PoseFileParseError) as info:
        load_poses(path)
    assert info.value.line == 3


def test_nan_constant_rejected(tmp_path):
    # json's NaN extension must not slip through as a coordinate
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"frame": 0, "joints": [[NaN, 2.0, 3.0]]}',
    ])
    with pytest.raises(PoseFileParseError) as info:
        load_poses(path)
    assert info.value.line == 2


def test_infinity_constant_rejected(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"frame": 0, "joints": [[1.0, -Infinity, 3.0]]}',
    ])
    with pytest.raises(PoseFileParseError):
        load_poses(path)


def test_boolean_coordinate_rejected(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"frame": 0, "joints": [[true, 2.0, 3.0]]}',
    ])
    with pytest.raises(PoseFileParseError) as info:
        load_poses(path)
    assert str(info.value).startswith(f"line 2: {path}: ")


def test_bad_header_dims(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 4}',
        '{"frame": 0, "joints": [[1, 2, 3, 4]]}',
    ])
    with pytest.raises(PoseFileSchemaError) as info:
        load_poses(path)
    assert info.value.line == 1
    assert str(info.value).startswith(f"line 1: {path}: ")


def test_missing_keys_rejected(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 3}',
        '{"joints": [[1.0, 2.0, 3.0]]}',
    ])
    with pytest.raises(PoseFileParseError) as info:
        load_poses(path)
    assert str(info.value).startswith(f"line 2: {path}: ")


def test_integer_coordinates_accepted(tmp_path):
    path = _write(tmp_path, [
        '{"J": 1, "dims": 2}',
        '{"frame": 0, "joints": [[1, 2]]}',
    ])
    out = load_poses(path)
    assert out.joints.dtype == np.float64
    assert np.array_equal(out.joints, [[[1.0, 2.0]]])


@pytest.mark.parametrize("header", ['{"J": 1.9, "dims": 3}',
                                    '{"J": 1, "dims": "3"}',
                                    '{"J": true, "dims": 3}',
                                    '{"dims": 3}'])
def test_header_counts_must_be_integers(tmp_path, header):
    # no coercion: 1.9 is not 1 and "3" is not 3
    path = _write(tmp_path, [header,
                             '{"frame": 0, "joints": [[1.0, 2.0, 3.0]]}'])
    with pytest.raises(PoseFileSchemaError, match="'(J|dims)'") as info:
        load_poses(path)
    assert info.value.line == 1


@pytest.mark.parametrize("frame", ["false", "0.0", '"0"'])
def test_frame_index_must_be_an_integer(tmp_path, frame):
    path = _write(tmp_path, ['{"J": 1, "dims": 3}',
                             '{"frame": %s, "joints": [[1.0, 2.0, 3.0]]}'
                             % frame])
    with pytest.raises(PoseFileSchemaError) as info:
        load_poses(path)
    assert info.value.line == 2
    assert str(info.value).startswith(f"line 2: {path}: ")
