import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.schedule import (DEFAULT_SIGNAL_SCALE, MM_PER_UNIT,
                               NoiseSchedule, diffuse_array,
                               make_cosine_schedule, save_schedule_csv,
                               to_millimeters, to_signal_units)

# Closed form of the schedule at the midpoint, evaluated with a
# 50-digit independent calculation: f(t) = cos^2(((t/T+0.008)/1.008)*pi/2),
# alpha_bar_500 = f(500)/f(0) at T=1000.
ALPHA_BAR_500_T1000 = 0.4938435904406377


def test_alpha_bar_endpoints():
    sched = make_cosine_schedule(1000)
    assert sched.alpha_bar[0] == 1.0
    assert sched.alpha_bar[1000] < 1e-3


def test_alpha_bar_midpoint_frozen():
    sched = make_cosine_schedule(1000)
    assert abs(sched.alpha_bar[500] - ALPHA_BAR_500_T1000) < 1e-9
    assert abs(sched.alpha_bar[500] - 0.494) < 1e-3


def test_alpha_bar_strictly_decreasing():
    sched = make_cosine_schedule(1000)
    assert (np.diff(sched.alpha_bar) < 0).all()


def test_beta_range_and_clip():
    sched = make_cosine_schedule(1000)
    assert sched.beta[0] == 0.0
    assert (sched.beta[1:] > 0).all()
    assert (sched.beta[1:] <= 0.999).all()
    # the cosine form exceeds the cap near the end, so the clip is live
    assert sched.beta[1000] == 0.999


def test_consecutive_product_identity():
    sched = make_cosine_schedule(777)
    lhs = sched.alpha_bar[1:]
    rhs = sched.alpha_bar[:-1] * sched.alpha[1:]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_t_max_lower_bound():
    with pytest.raises(ValueError):
        make_cosine_schedule(1)
    make_cosine_schedule(2)  # smallest legal ladder


@given(st.integers(2, 300))
@settings(max_examples=25, deadline=None)
def test_schedule_valid_for_any_t_max(t_max):
    sched = make_cosine_schedule(t_max)
    assert sched.t_max == t_max
    assert sched.alpha_bar.shape == (t_max + 1,)


def test_diffuse_zero_noise():
    sched = make_cosine_schedule(100)
    y0 = np.full((1, 2, 3), 4.0)
    out = diffuse_array(y0, 50, sched, np.zeros_like(y0))
    np.testing.assert_array_equal(out, np.sqrt(sched.alpha_bar[50]) * y0)


def test_diffuse_t0_is_identity():
    sched = make_cosine_schedule(100)
    rng = np.random.default_rng(0)
    y0 = rng.normal(size=(2, 3, 3))
    eps = rng.normal(size=(2, 3, 3))
    out = diffuse_array(y0, 0, sched, eps)
    np.testing.assert_array_equal(out, y0)


def test_diffuse_t_out_of_range():
    sched = make_cosine_schedule(10)
    y0 = np.zeros((1, 1, 3))
    with pytest.raises(ValueError):
        diffuse_array(y0, 11, sched, y0)
    with pytest.raises(ValueError):
        diffuse_array(y0, -1, sched, y0)


def test_diffuse_shape_mismatch():
    sched = make_cosine_schedule(10)
    with pytest.raises(ValueError):
        diffuse_array(np.zeros((1, 2, 3)), 5, sched, np.zeros((1, 1, 3)))


def test_diffuse_monte_carlo_moments():
    # sample mean ~ sqrt(ab)*y0 within 4 sigma, variance ~ (1 - ab)
    sched = make_cosine_schedule(1000)
    rng = np.random.default_rng(42)
    y0 = np.array([[[0.8, -1.2, 2.0]]])
    n = 10_000
    for t in (1, 500, 999):
        ab = sched.alpha_bar[t]
        samples = np.stack([
            diffuse_array(y0, t, sched, rng.standard_normal(y0.shape))
            for _ in range(n)])
        mean_band = 4.0 * np.sqrt((1.0 - ab) / n)
        assert np.abs(samples.mean(axis=0) - np.sqrt(ab) * y0).max() < mean_band
        var = samples.var(axis=0)
        assert np.abs(var - (1.0 - ab)).max() < 0.1 * max(1.0 - ab, 1e-6)


def test_diffuse_affine_superposition():
    sched = make_cosine_schedule(50)
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 1, 2, 3))
    e1, e2 = rng.normal(size=(2, 1, 2, 3))
    lhs = diffuse_array(a + b, 25, sched, e1 + e2)
    rhs = (diffuse_array(a, 25, sched, e1)
           + diffuse_array(b, 25, sched, e2))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# --- signal scaling ----------------------------------------------------------

def test_unit_conversion_round_trip():
    mm = np.array([1234.5, -0.25, 8000.0])
    np.testing.assert_allclose(
        to_millimeters(to_signal_units(mm, 2.0), 2.0), mm, rtol=1e-15)


def test_unit_conversion_values():
    # 1000 mm at scale 2 -> 2.0 units
    assert to_signal_units(np.array(1000.0), 2.0) == 2.0
    assert to_millimeters(np.array(2.0), 2.0) == 1000.0
    assert MM_PER_UNIT == 1000.0 and DEFAULT_SIGNAL_SCALE == 2.0


def test_scale_signal_elementwise():
    # normalized-unit payload (1, -0.5, 2) doubled by scale=2
    mm = np.array([[[1.0, -0.5, 2.0]]]) * MM_PER_UNIT
    np.testing.assert_array_equal(to_signal_units(mm, 2.0), [[[2.0, -1.0, 4.0]]])


def test_scale_unscale_inverse():
    rng = np.random.default_rng(2)
    mm = rng.normal(scale=1000.0, size=(2, 3, 3))
    out = to_millimeters(to_signal_units(mm, 1.7), 1.7)
    np.testing.assert_allclose(out, mm, rtol=1e-15)


def test_scale_one_is_pure_unit_change():
    out = to_signal_units(np.array([[[3000.0, -500.0, 1000.0]]]), 1.0)
    np.testing.assert_array_equal(out, [[[3.0, -0.5, 1.0]]])


def test_scale_rejects_nonpositive():
    zeros = np.zeros((1, 1, 3))
    for convert in (to_signal_units, to_millimeters):
        with pytest.raises(ValueError):
            convert(zeros, 0.0)
        with pytest.raises(ValueError):
            convert(zeros, -2.0)


def test_schedule_rejects_tampered_alpha_bar():
    sched = make_cosine_schedule(10)
    bad = sched.alpha_bar.copy()
    bad[5] = bad[4]  # breaks strict decrease
    with pytest.raises(ValueError):
        NoiseSchedule(t_max=10, beta=sched.beta, alpha=sched.alpha,
                      alpha_bar=bad)


def test_schedule_csv_dump(tmp_path):
    sched = make_cosine_schedule(5)
    path = tmp_path / "sched.csv"
    save_schedule_csv(sched, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,beta,alpha,alpha_bar"
    assert len(lines) == 7  # header + t = 0..5
    t, beta, alpha, ab = lines[3].split(",")
    assert int(t) == 2
    assert float(beta) == sched.beta[2]
    assert float(alpha) == sched.alpha[2]
    assert float(ab) == sched.alpha_bar[2]
