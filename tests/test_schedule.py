"""Sigmoidal shifting-sequence construction and its exact anchor values."""

import math
import tracemalloc

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
        sched = Schedule(t_mid=1.5, etas=np.array([0.0, 0.4, 1.0]),
                         mode="normalized")
        assert sched.steps == 2
        assert build_schedule(40).steps == 40
        with pytest.raises(ParameterError, match="1-D"):
            Schedule(t_mid=1.5, etas=np.zeros((2, 2)), mode="raw")

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

    def test_schedule_rejects_non_monotone_etas(self):
        with pytest.raises(ParameterError):
            Schedule(t_mid=1.5, etas=np.array([0.0, 0.8, 0.5]), mode="raw")

    def test_normalized_requires_exact_anchors(self):
        with pytest.raises(ParameterError):
            Schedule(t_mid=1.5, etas=np.array([0.1, 0.5, 1.0]),
                     mode="normalized")
