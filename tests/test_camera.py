import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.camera import (CameraIntrinsics, camera_from_dict,
                             camera_to_dict, load_camera, project,
                             project_with_mask)
from posediff.core import (DEFAULT_SKELETON, PoseSeq3D, flip_array2d,
                           flip_array3d)
from posediff.errors import BehindCameraError


@pytest.fixture
def distorted_camera() -> CameraIntrinsics:
    return CameraIntrinsics.distorted(fx=1100.0, fy=1150.0, cx=480.0,
                                      cy=510.0, k1=0.02, k2=-0.005,
                                      k3=0.0004, p1=0.001, p2=-0.002)


def test_pinhole_worked_example(simple_camera):
    # (1, 2, 5) at any depth unit: X' = 0.2, Y' = 0.4
    p = PoseSeq3D(np.array([[[1.0, 2.0, 5.0]]]))
    uv = project(p, simple_camera)
    assert np.array_equal(uv.joints, [[[700.0, 900.0]]])


def test_distorted_worked_example():
    # X' = Y' = 0.1, k1 = 0.1: r^2 = 0.02, d_r = 1.002,
    # u = 1000 * 0.1 * 1.002 + 500 = 600.2
    cam = CameraIntrinsics.distorted(fx=1000.0, fy=1000.0, cx=500.0,
                                     cy=500.0, k1=0.1)
    p = PoseSeq3D(np.array([[[100.0, 100.0, 1000.0]]]))
    uv = project(p, cam)
    assert uv.joints[0, 0, 0] == 600.2
    assert uv.joints[0, 0, 1] == 600.2


def test_zero_coefficients_match_pinhole_bitwise(simple_camera):
    cam0 = CameraIntrinsics.distorted(fx=1000.0, fy=1000.0, cx=500.0,
                                      cy=500.0)
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=300.0, size=(4, 17, 3))
    pts[..., 2] += 3000.0
    p = PoseSeq3D(pts)
    assert np.array_equal(project(p, cam0).joints,
                          project(p, simple_camera).joints)


def test_depth_scaling_invariance(distorted_camera):
    rng = np.random.default_rng(4)
    pts = rng.normal(scale=200.0, size=(2, 5, 3))
    pts[..., 2] += 4000.0
    base = project(PoseSeq3D(pts), distorted_camera).joints
    for lam in (0.5, 2.0, 10.0):
        scaled = project(PoseSeq3D(lam * pts), distorted_camera).joints
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


@pytest.mark.parametrize("p1, close", [(0.0, True), (0.01, False)])
def test_flip_is_the_projection_of_the_mirror_only_without_p1(p1, close):
    # u -> 2*cx - u maps a pose's keypoints to those of its mirror
    # (x -> -x, left and right swapped): k1-k3 are even in x' and p2
    # moves only v, but the p1 r^2 shift of x_d keeps its sign
    cam = CameraIntrinsics.distorted(fx=1100.0, fy=1150.0, cx=480.0,
                                     cy=510.0, k1=0.02, k2=-0.005,
                                     k3=0.0004, p1=p1, p2=0.01)
    rng = np.random.default_rng(5)
    pts = rng.normal(scale=600.0, size=(4, 17, 3))
    pts[..., 2] += 3000.0
    flipped = flip_array2d(project(PoseSeq3D(pts), cam).joints,
                           DEFAULT_SKELETON, 2.0 * cam.cx)
    mirrored = project(PoseSeq3D(flip_array3d(pts, DEFAULT_SKELETON)),
                       cam).joints
    gap = np.abs(flipped - mirrored).max()
    assert (gap < 1e-9) if close else (gap > 1.0)

def test_behind_camera_error_carries_location(simple_camera):
    pts = np.full((3, 2, 3), 2000.0)
    pts[1, 1, 2] = 0.5  # within DEFAULT_Z_MIN (1 mm) of the camera: behind
    with pytest.raises(BehindCameraError) as info:
        project(PoseSeq3D(pts), simple_camera)
    assert info.value.frame == 1
    assert info.value.joint == 1


def test_z_exactly_at_z_min_rejected(simple_camera):
    pts = np.full((1, 1, 3), 1.0)
    with pytest.raises(BehindCameraError):
        project(PoseSeq3D(pts), simple_camera)


def test_project_with_mask(simple_camera):
    pts = np.full((2, 2, 3), 2000.0)
    pts[0, 1, 2] = -5.0
    uv, valid = project_with_mask(pts, simple_camera)
    assert valid.shape == (2, 2)
    assert not valid[0, 1]
    assert valid.sum() == 3
    assert np.isfinite(uv).all()
    assert np.array_equal(uv[0, 1], [0.0, 0.0])
    # valid joints must agree with plain projection
    good = PoseSeq3D(pts[1:])
    np.testing.assert_array_equal(uv[1], project(good, simple_camera).joints[0])


def test_ray_invariance_two_depths(simple_camera):
    # points on one ray through the camera centre share a pixel
    a = np.array([-179.0, 154.0, 1000.0])
    b = 4.0 * a
    pa = project(PoseSeq3D(a.reshape(1, 1, 3)), simple_camera).joints
    pb = project(PoseSeq3D(b.reshape(1, 1, 3)), simple_camera).joints
    np.testing.assert_allclose(pa, pb, rtol=1e-12)


def test_pinhole_rejects_nonzero_coefficients():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0, k1=0.1,
                         model="pinhole")


def test_nonpositive_focal_rejected():
    with pytest.raises(ValueError):
        CameraIntrinsics.pinhole(fx=0.0, fy=1000.0, cx=0.0, cy=0.0)


def test_camera_json_round_trip(tmp_path, distorted_camera):
    path = tmp_path / "cam.json"
    path.write_text(json.dumps(camera_to_dict(distorted_camera)))
    assert load_camera(path) == distorted_camera


def test_camera_dict_round_trip(simple_camera):
    assert camera_from_dict(camera_to_dict(simple_camera)) == simple_camera


@pytest.mark.parametrize("key, value", [
    ("fx", "900"), ("fx", True), ("fx", "abc"), ("cy", None), ("k1", "0"),
    ("model", 1), ("cx", "missing")])
def test_camera_dict_wrong_types_name_the_key(simple_camera, key, value):
    # no coercion: "900" is not 900.0 and true is not 1.0
    doc = camera_to_dict(simple_camera)
    doc[key] = value
    if value == "missing":
        del doc[key]
    with pytest.raises(ValueError, match=f"^cam.json: '{key}'"):
        camera_from_dict(doc, "cam.json")


def test_camera_dict_unknown_key_named(simple_camera):
    # a misspelled k1 must not load as k1 = 0
    doc = {**camera_to_dict(simple_camera), "k_1": 0.3}
    with pytest.raises(ValueError, match="^cam.json: unknown key.*'k_1'"):
        camera_from_dict(doc, "cam.json")


def test_camera_value_errors_name_the_file(simple_camera, tmp_path):
    path = tmp_path / "cam.json"
    for key, value in (("fx", -5.0), ("k1", 0.1), ("model", "fisheye")):
        path.write_text(json.dumps({**camera_to_dict(simple_camera),
                                    key: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_camera(path)


def test_camera_file_non_finite_token(simple_camera, tmp_path):
    path = tmp_path / "cam.json"
    path.write_text(json.dumps(camera_to_dict(simple_camera))
                    .replace('"k1": 0.0', '"k1": NaN'))
    with pytest.raises(ValueError, match="cam.json.*NaN"):
        load_camera(path)


@settings(max_examples=40)
@given(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
       st.floats(100.0, 10000.0))
def test_projection_continuity(xn, yn, z):
    # a 1 mm nudge moves the pixel by at most ~(fx / z_min) per mm
    cam = CameraIntrinsics.distorted(fx=1000.0, fy=1000.0, cx=500.0,
                                     cy=500.0, k1=0.01, k2=0.001, p1=0.0005,
                                     p2=0.0005, k3=0.0)
    p0 = np.array([[[xn * z, yn * z, z]]])
    p1 = p0 + np.array([1.0, 1.0, 0.0])
    uv0 = project(PoseSeq3D(p0), cam).joints
    uv1 = project(PoseSeq3D(p1), cam).joints
    step = np.abs(uv1 - uv0).max()
    assert step <= (1000.0 / z) * 2.0 + 1e-9
