"""Trace-distance dynamics, interval accumulation, and pair maximization."""
import math

import numpy as np
import pytest

from qmemory import (
    BlpResult,
    Classification,
    IncreaseInterval,
    MARKOVIAN,
    ModelParams,
    NON_MARKOVIAN,
    blp_measure,
    blp_measure_maximized,
    bloch_polar_state,
    classify_dynamics,
    default_scan_step,
    default_truncation_time,
    first_revival_time,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
    validate_density_matrix,
)
from qmemory.nonmarkov import CANONICAL_PAIR_LABEL, MAX_INTERVALS
from qmemory.errors import InvalidGridError, InvariantViolation

from helpers import (
    CANONICAL,
    FIRST_GAIN,
    FIRST_GAIN_END,
    MAXIMIZED_FIRST_END,
    MAXIMIZED_FIRST_GAIN,
    MAXIMIZED_FIRST_START,
    MAXIMIZED_LABEL,
    N_CANONICAL,
    N_CANONICAL_INTERVALS,
    N_MAXIMIZED_CANONICAL,
    N_OMEGA_01,
    N_OMEGA_05,
    T_STAR,
    blp_geometric_series,
    random_params,
    swap_geometric_series,
)


class TestTraceDistanceCurve:
    def test_pair_matches_closed_form(self):
        rng = np.random.default_rng(91)
        for _ in range(1000):
            params = random_params(rng)
            t = float(rng.uniform(0.0, 20.0))
            assert abs(
                trace_distance_pair(params, t) - trace_distance_closed_form(params, t)
            ) < 1e-12

    def test_array_support(self):
        t = np.linspace(0.0, 10.0, 50)
        pair = trace_distance_pair(CANONICAL, t)
        closed = trace_distance_closed_form(CANONICAL, t)
        assert pair.shape == (50,)
        assert np.max(np.abs(pair - closed)) < 1e-12

    def test_unit_at_time_zero(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            params = random_params(rng)
            assert abs(trace_distance_closed_form(params, 0.0) - 1.0) < 1e-15

    def test_zeros_at_quarter_periods(self):
        for k in range(5):
            t = (math.pi / 2 + k * math.pi) / CANONICAL.omega
            assert trace_distance_closed_form(CANONICAL, t) < 1e-25

    def test_rate_at_time_zero(self):
        rng = np.random.default_rng(93)
        for _ in range(20):
            params = random_params(rng)
            assert abs(trace_distance_rate(params, 0.0) + params.relaxation_rate) < 1e-14

    def test_rate_matches_finite_difference(self):
        h = 1e-5
        for t in (0.3, 1.0, 2.5, 4.0, 7.7):
            fd = (
                trace_distance_closed_form(CANONICAL, t + h)
                - trace_distance_closed_form(CANONICAL, t - h)
            ) / (2 * h)
            assert abs(fd - trace_distance_rate(CANONICAL, t)) < 1e-6

    def test_pure_decay_when_uncoupled(self):
        params = ModelParams(gamma=0.3, m=1.0, omega=0.0)
        for t in (0.0, 0.5, 2.0, 5.0):
            expected = math.exp(-params.relaxation_rate * t)
            assert abs(trace_distance_closed_form(params, t) - expected) < 1e-14
            assert trace_distance_rate(params, t) < 0.0


class TestBlpMeasure:
    def test_canonical_frozen_value(self):
        result = blp_measure(CANONICAL)
        assert result.n_value == pytest.approx(N_CANONICAL, rel=1e-9)
        assert len(result.intervals) == N_CANONICAL_INTERVALS
        assert result.pair_label == CANONICAL_PAIR_LABEL
        assert result.truncation_time == pytest.approx(75.0)
        assert result.tail_bound == pytest.approx(math.exp(-30.0), rel=1e-12)

        first = result.intervals[0]
        assert first.t_start == pytest.approx(T_STAR, abs=1e-8)
        assert first.t_end == pytest.approx(FIRST_GAIN_END, abs=1e-8)
        assert first.gain == pytest.approx(FIRST_GAIN, abs=1e-10)

    def test_interval_structure(self):
        result = blp_measure(CANONICAL)
        period = math.pi / CANONICAL.omega
        ratio = math.exp(-CANONICAL.relaxation_rate * period)
        for prev, cur in zip(result.intervals[:-1], result.intervals[1:]):
            assert cur.t_start > prev.t_end
            assert cur.t_start - prev.t_start == pytest.approx(period, abs=1e-7)
        # the distance curve repeats its shape every half beat, scaled by the
        # envelope, so successive gains are geometric
        for prev, cur in zip(result.intervals[:8], result.intervals[1:9]):
            assert cur.gain / prev.gain == pytest.approx(ratio, rel=1e-7)

    def test_gains_match_distance_increments(self):
        result = blp_measure(CANONICAL)
        for iv in result.intervals[:5]:
            increment = trace_distance_closed_form(
                CANONICAL, iv.t_end
            ) - trace_distance_closed_form(CANONICAL, iv.t_start)
            assert iv.gain == pytest.approx(increment, abs=1e-12)

    def test_riemann_cross_check(self):
        result = blp_measure(CANONICAL)
        t = np.linspace(0.0, result.truncation_time, 750_001)
        sigma = np.asarray(trace_distance_rate(CANONICAL, t))
        riemann = float(np.trapezoid(np.maximum(sigma, 0.0), t))
        assert result.n_value == pytest.approx(riemann, rel=1e-4)

    def test_frozen_values_at_other_couplings(self):
        n_01 = blp_measure(ModelParams(0.2, 0.5, 0.1)).n_value
        n_05 = blp_measure(ModelParams(0.2, 0.5, 0.5)).n_value
        assert n_01 == pytest.approx(N_OMEGA_01, rel=1e-6, abs=1e-10)
        assert n_05 == pytest.approx(N_OMEGA_05, rel=1e-9)

    def test_uncoupled_gives_exact_zero(self):
        result = blp_measure(ModelParams(0.2, 0.5, 0.0))
        assert result.n_value == 0.0
        assert result.intervals == ()

    def test_truncation_clips_interval_count(self):
        result = blp_measure(CANONICAL, t_max=4.0)
        assert len(result.intervals) == 1
        assert result.n_value == pytest.approx(FIRST_GAIN, abs=1e-8)
        assert result.tail_bound == pytest.approx(math.exp(-1.6), rel=1e-12)

    def test_invalid_grid_arguments(self):
        for kwargs in (
            dict(dt=0.0),
            dict(dt=-0.5),
            dict(t_max=0.0),
            dict(t_max=-1.0),
            dict(dt=math.nan),
            dict(t_max=math.inf),
        ):
            with pytest.raises(InvalidGridError):
                blp_measure(CANONICAL, **kwargs)

    def test_matches_geometric_series(self):
        rng = np.random.default_rng(47)
        # omega / R log-uniform up to 1e4 (about 95 000 intervals), plus that corner
        ratios = np.append(np.exp(rng.uniform(math.log(0.05), math.log(1e4), 50)), 1e4)
        for ratio in ratios.tolist():
            gamma = float(rng.uniform(0.05, 1.0))
            m = float(rng.uniform(0.0, 3.0))
            params = ModelParams(gamma, m, ratio * gamma * (1.0 + 2.0 * m))
            assert blp_measure(params).n_value == pytest.approx(
                blp_geometric_series(params), rel=0, abs=1e-9
            )

    def test_interval_count_is_number_of_zeros_before_truncation(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            params = random_params(rng)
            t_max = float(rng.uniform(0.1, 60.0))
            zeros = 0
            while params.omega > 0 and (0.5 + zeros) * math.pi / params.omega < t_max:
                zeros += 1
            intervals = blp_measure(params, t_max=t_max).intervals
            assert len(intervals) == zeros
            assert all(iv.t_end <= t_max for iv in intervals)
            if trace_distance_rate(params, t_max) > 0.0:  # cut inside a rise
                assert intervals[-1].t_end == t_max
        assert blp_measure(CANONICAL, t_max=T_STAR).intervals == ()
        (only,) = blp_measure(CANONICAL, t_max=T_STAR * (1.0 + 1e-12)).intervals
        assert only.t_end == T_STAR * (1.0 + 1e-12)

    def test_scan_step_has_no_effect(self):
        assert blp_measure(CANONICAL, dt=0.5) == blp_measure(CANONICAL)

    def test_interval_limit(self):
        assert MAX_INTERVALS == 100_000
        with pytest.raises(InvalidGridError, match="100000"):
            blp_measure(ModelParams(0.001, 0.0, 1000.0))
        with pytest.raises(InvalidGridError, match="100000"):
            blp_measure(ModelParams(1.0, 0.0, 1.0), t_max=math.pi * (MAX_INTERVALS + 1))

    def test_default_grid_helpers(self):
        assert default_scan_step(CANONICAL) == pytest.approx(0.0125)
        assert default_truncation_time(CANONICAL) == pytest.approx(75.0)
        slow = ModelParams(0.05, 0.0, 0.01)
        assert default_scan_step(slow) == pytest.approx(0.01 / 0.05)
        assert default_truncation_time(slow) == pytest.approx(600.0)


class TestResultRecords:
    def test_interval_endpoint_order(self):
        with pytest.raises(InvariantViolation):
            IncreaseInterval(t_start=1.0, t_end=1.0, gain=0.1)
        with pytest.raises(InvariantViolation):
            IncreaseInterval(t_start=2.0, t_end=1.0, gain=0.1)

    def test_interval_gain_sign(self):
        with pytest.raises(InvariantViolation):
            IncreaseInterval(t_start=1.0, t_end=2.0, gain=-0.1)

    def test_result_consistency(self):
        iv = IncreaseInterval(t_start=1.0, t_end=2.0, gain=0.25)
        BlpResult(
            n_value=0.25, intervals=(iv,), pair_label="x", truncation_time=10.0,
            tail_bound=0.0,
        )
        with pytest.raises(InvariantViolation):
            BlpResult(
                n_value=0.30, intervals=(iv,), pair_label="x", truncation_time=10.0,
                tail_bound=0.0,
            )
        with pytest.raises(InvariantViolation):
            BlpResult(
                n_value=0.25, intervals=(iv,), pair_label="x", truncation_time=10.0,
                tail_bound=-1e-3,
            )
        with pytest.raises(InvariantViolation):
            BlpResult(
                n_value=0.25, intervals=(iv,), pair_label="x", truncation_time=0.0,
                tail_bound=0.0,
            )


class TestRevivalTime:
    def test_quarter_period_across_parameters(self):
        for gamma in (0.1, 0.2, 0.5):
            for m in (0.0, 0.5, 2.0):
                for omega in (0.3, 0.8, 1.5):
                    params = ModelParams(gamma, m, omega)
                    t_rev = first_revival_time(params)
                    assert t_rev is not None
                    assert t_rev * omega == pytest.approx(math.pi / 2, abs=1e-9)

    def test_uncoupled_never_revives(self):
        assert first_revival_time(ModelParams(0.2, 0.5, 0.0)) is None


class TestClassification:
    def test_regime_flip_with_coupling(self):
        weak = classify_dynamics(ModelParams(0.2, 0.5, 0.1), eps=1e-3)
        strong = classify_dynamics(CANONICAL, eps=1e-3)
        assert weak.regime == MARKOVIAN
        assert strong.regime == NON_MARKOVIAN

    def test_threshold_semantics(self):
        high_bar = classify_dynamics(CANONICAL, eps=1.0)
        assert high_bar.regime == MARKOVIAN
        assert high_bar.n_value == pytest.approx(N_CANONICAL, rel=1e-9)
        assert high_bar.eps == 1.0

    def test_uncoupled_is_markovian_at_zero_threshold(self):
        verdict = classify_dynamics(ModelParams(0.2, 0.5, 0.0), eps=0.0)
        assert verdict.regime == MARKOVIAN
        assert verdict.n_value == 0.0

    def test_carries_full_result(self):
        verdict = classify_dynamics(CANONICAL, eps=1e-3)
        assert isinstance(verdict, Classification)
        assert isinstance(verdict.result, BlpResult)
        assert verdict.n_value == verdict.result.n_value

    def test_eps_validation(self):
        for eps in (-1e-3, math.nan, math.inf):
            with pytest.raises(InvariantViolation):
                classify_dynamics(CANONICAL, eps=eps)


class TestBlochPolarState:
    def test_pole_states(self):
        north = bloch_polar_state(0.0)
        south = bloch_polar_state(math.pi)
        assert np.max(np.abs(north - np.diag([1.0, 0.0]))) < 1e-15
        assert np.max(np.abs(south - np.diag([0.0, 1.0]))) < 1e-15

    def test_equator_state(self):
        rho = bloch_polar_state(math.pi / 2)
        assert np.max(np.abs(rho - 0.5 * np.ones((2, 2)))) < 1e-15

    def test_pure_and_valid(self):
        for theta in np.linspace(0.0, math.pi, 9):
            rho = bloch_polar_state(float(theta))
            validate_density_matrix(rho, dim=2)
            assert np.max(np.abs(rho @ rho - rho)) < 1e-15


class TestMaximizedMeasure:
    def test_frozen_winner(self):
        series = swap_geometric_series(CANONICAL)
        assert N_MAXIMIZED_CANONICAL == pytest.approx(series, abs=1e-12)
        result = blp_measure_maximized(CANONICAL, grid_size=3)
        assert result.n_value == pytest.approx(N_MAXIMIZED_CANONICAL, abs=1e-8)
        assert result.pair_label == MAXIMIZED_LABEL
        first = result.intervals[0]
        assert first.t_start == pytest.approx(MAXIMIZED_FIRST_START, abs=1e-8)
        assert first.t_end == pytest.approx(MAXIMIZED_FIRST_END, abs=1e-8)
        assert first.gain == pytest.approx(MAXIMIZED_FIRST_GAIN, abs=1e-10)
        assert result.tail_bound >= 0.0
        assert result.tail_bound < 1e-9

    def test_grid_size_invariance_once_poles_present(self):
        coarse = blp_measure_maximized(CANONICAL, grid_size=2)
        fine = blp_measure_maximized(CANONICAL, grid_size=5)
        assert coarse.pair_label == MAXIMIZED_LABEL
        assert fine.pair_label == MAXIMIZED_LABEL
        assert coarse.n_value == pytest.approx(N_MAXIMIZED_CANONICAL, abs=1e-8)
        assert fine.n_value == pytest.approx(N_MAXIMIZED_CANONICAL, abs=1e-8)

    def test_dominates_canonical_pair(self):
        result = blp_measure_maximized(CANONICAL, grid_size=3)
        assert result.n_value >= blp_measure(CANONICAL).n_value

    def test_uncoupled_gives_zero(self):
        result = blp_measure_maximized(ModelParams(0.2, 0.5, 0.0), grid_size=3)
        assert result.n_value == 0.0
        assert result.intervals == ()

    @pytest.mark.xfail(
        strict=True,
        reason="winner chosen from sampled estimates that under-count V-shaped minima "
        "near omega/R = 1 (documented in perfbench/README.md)",
    )
    def test_not_below_swap_pair(self):
        # grid 5 contains the |10>/|01> pair, so N may not fall below its series
        params = ModelParams(0.49335523078582455, 0.18559001921664953, 0.7119513917476399)
        result = blp_measure_maximized(params, grid_size=5)
        assert result.n_value >= swap_geometric_series(params) - 1e-9

    def test_grid_size_validation(self):
        for bad in (1, 0, -2):
            with pytest.raises(InvariantViolation):
                blp_measure_maximized(CANONICAL, grid_size=bad)

    def test_invalid_grid_arguments(self):
        with pytest.raises(InvalidGridError):
            blp_measure_maximized(CANONICAL, grid_size=3, dt=-0.1)
        with pytest.raises(InvalidGridError):
            blp_measure_maximized(CANONICAL, grid_size=3, t_max=0.0)
