"""Sigmoidal shifting-sequence construction and its exact anchor values."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pixelboost import ParameterError
from pixelboost.schedule import (MAX_STEPS, MODES, Schedule, build_schedule,
                                 default_t_mid)

# Frozen against a 40-digit mpmath evaluation of the logistic curve.
ETA_RAW_7 = 0.2689414213699951       # 1 / (1 + e)
ETA_RAW_9 = 0.7310585786300049       # 1 / (1 + e^-1)
ETA_NORM_1 = 0.0005764195139800713
ETA_NORM_8 = 0.5002882097569901


class TestRawMode:
    def test_midpoint_is_exactly_half(self):
        sched = build_schedule(15, t_mid=8, mode="raw")
        assert sched.etas[8] == 0.5

    def test_frozen_neighbor_values(self):
        sched = build_schedule(15, t_mid=8, mode="raw")
        assert sched.etas[9] == ETA_RAW_9
        assert sched.etas[7] == ETA_RAW_7

    def test_alpha_at_midpoint(self):
        sched = build_schedule(15, t_mid=8, mode="raw")
        np.testing.assert_allclose(sched.alphas[7], 0.5 - ETA_RAW_7,
                                   rtol=0, atol=1e-15)

    def test_symmetry_about_midpoint(self):
        # sigmoid(x) + sigmoid(-x) = 1, so eta mirrors around t_mid
        sched = build_schedule(15, t_mid=8, mode="raw")
        for d in range(8):
            np.testing.assert_allclose(sched.etas[8 + d] + sched.etas[8 - d],
                                       1.0, rtol=0, atol=1e-15)

    def test_raw_values_match_scalar_sigmoid(self):
        sched = build_schedule(12, t_mid=5.5, mode="raw")
        for t in range(13):
            np.testing.assert_allclose(sched.etas[t],
                                       1.0 / (1.0 + math.exp(-(t - 5.5))),
                                       rtol=0, atol=1e-15)


class TestNormalizedMode:
    def test_exact_anchors(self):
        sched = build_schedule(15, t_mid=8, mode="normalized")
        assert sched.etas[0] == 0.0
        assert sched.etas[15] == 1.0

    def test_frozen_values(self):
        sched = build_schedule(15, t_mid=8, mode="normalized")
        assert sched.etas[1] == ETA_NORM_1
        assert sched.etas[8] == ETA_NORM_8

    def test_alphas_sum_to_one(self):
        sched = build_schedule(15, t_mid=8, mode="normalized")
        np.testing.assert_allclose(sched.alphas.sum(), 1.0, rtol=0, atol=1e-12)

    def test_default_mode_is_normalized(self):
        assert build_schedule(15).mode == "normalized"


class TestGenericProperties:
    @pytest.mark.parametrize("steps", [2, 5, 15, 40])
    @pytest.mark.parametrize("mode", MODES)
    def test_strictly_increasing_within_bounds(self, steps, mode):
        sched = build_schedule(steps, mode=mode)
        assert np.all(np.diff(sched.etas) > 0)
        assert sched.etas[0] >= 0.0 and sched.etas[-1] <= 1.0

    @pytest.mark.parametrize("steps", [2, 5, 15, 40])
    def test_alphas_telescope(self, steps):
        sched = build_schedule(steps, mode="raw")
        np.testing.assert_allclose(sched.alphas.sum(),
                                   sched.etas[-1] - sched.etas[0],
                                   rtol=0, atol=1e-12)

    def test_alpha_positivity(self):
        sched = build_schedule(30)
        assert sched.alphas.shape == (30,)
        assert np.all(sched.alphas > 0.0)

    def test_default_t_mid_crosses_half_at_eight_for_fifteen_steps(self):
        assert default_t_mid(15) == 8.0
        assert build_schedule(15, mode="raw").etas[8] == 0.5

    def test_etas_are_read_only(self):
        sched = build_schedule(5)
        with pytest.raises(ValueError):
            sched.etas[2] = 0.9


class TestValidation:
    def test_too_few_steps(self):
        with pytest.raises(ParameterError):
            build_schedule(1)

    def test_steps_above_bound_refused_before_allocating(self):
        with pytest.raises(ParameterError, match="steps must lie in"):
            build_schedule(MAX_STEPS + 1, t_mid=MAX_STEPS / 2)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError):
                build_schedule(5_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_steps_property_counts_etas(self):
        assert build_schedule(40).steps == 40

    @pytest.mark.parametrize("t_mid", [0.0, -3.0, 15.0, 99.0])
    def test_t_mid_outside_range(self, t_mid):
        with pytest.raises(ParameterError):
            build_schedule(15, t_mid=t_mid)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            build_schedule(15, mode="linear")

    @pytest.mark.parametrize("steps", [15.7, 15.0, "15", None])
    def test_fractional_steps_refused(self, steps):
        # int() used to build a 15-step schedule from 15.7
        with pytest.raises(ParameterError, match="steps must be an integer"):
            build_schedule(steps)

    def test_midpoint_past_exp_overflow_keeps_its_bits(self):
        # past t_mid = ln(DBL_MAX) ~ 709.78 the sigmoid's exp overflows at t = 0
        # to +inf, so s_0 = 0.0, silently; the digest was recorded while
        # the overflow still warned, with warnings suppressed
        etas = build_schedule(711, t_mid=710.3).etas
        assert etas[0] == 0.0 and etas[-1] == 1.0
        assert hashlib.sha256(etas.tobytes()).hexdigest() == (
            "a004be588c8101ea598bd6c9a5e07c39521dc08af22544d7c3d8c8b88206fb25")

    def test_saturated_midpoint_refused_not_warned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="strictly increasing"):
                build_schedule(900, t_mid=850)

    def test_normalized_ends_at_exact_anchors(self):
        built = 0
        for steps in range(2, MAX_STEPS + 1):
            for t_mid in [None, 0.5, 1.0, 3.7, steps / 3, steps - 0.5]:
                try:
                    etas = build_schedule(steps, t_mid).etas
                except ParameterError:
                    continue  # past saturation, or t_mid outside (0, steps)
                assert etas[0] == 0.0 and etas[-1] == 1.0
                built += 1
        assert built > 900


# every build_schedule outcome over this grid, valid or refused, hashes to
# GRID_DIGEST; recorded while Schedule still took a hand-built etas array
GRID_STEPS = [*range(2, 1001), 0, 1, 1001, 15.5, "15", None]
GRID_T_MIDS = [None, 0.5, 1, 3.7, 8, 15.0, 76.0, 710.3, -1.0, float("nan")]
GRID_MODES = ["normalized", "raw", "linear", 5]
GRID_DIGEST = "9e2d47a5515e2e753a7c476f8b550b3166eb86701971caf31ce7764cf5b83fbe"


def _grid_digest():
    """SHA-256 of each grid call's (steps, t_mid, mode) and etas bytes, or of
    its refusal's type and message, with warnings as errors."""
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for steps in GRID_STEPS:
            for t_mid in GRID_T_MIDS:
                for mode in GRID_MODES:
                    try:
                        s = build_schedule(steps, t_mid, mode)
                    except Exception as exc:
                        digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    else:
                        digest.update(f"{(s.steps, s.t_mid, s.mode)!r}\n".encode())
                        digest.update(s.etas.tobytes())
    return digest.hexdigest()


class TestThreeNumbers:
    def test_grid_matches_recorded_digest(self):
        assert _grid_digest() == GRID_DIGEST

    def test_etas_are_not_an_argument(self):
        with pytest.raises(TypeError):
            Schedule(t_mid=1.5, etas=np.array([0.0, 0.4, 1.0]), mode="normalized")

    def test_equal_schedules_compare_and_hash_equal(self):
        assert Schedule(15) == Schedule(15, 8.0) == build_schedule(15, 8, "normalized")
        assert hash(Schedule(15)) == hash(Schedule(15, 8.0))
        assert len({Schedule(15), Schedule(15, 8), build_schedule(15)}) == 1

    @pytest.mark.parametrize("other", [(16,), (15, 7.5), (15, None, "raw")])
    def test_schedules_differing_in_a_number_differ(self, other):
        assert Schedule(15) != Schedule(*other)
        assert len({Schedule(15), Schedule(*other)}) == 2
