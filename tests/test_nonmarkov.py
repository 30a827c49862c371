"""Trace-distance dynamics, interval accumulation, and pair maximization."""
import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmemory import (
    BlpResult,
    Classification,
    EntanglementVariant,
    IncreaseInterval,
    MARKOVIAN,
    ModelParams,
    NON_MARKOVIAN,
    ParamFamily,
    blp_measure,
    blp_measure_maximized,
    classify_dynamics,
    default_scan_step,
    default_truncation_time,
    entanglement_entropy,
    population_from_excited,
    population_from_ground,
    propagate_exact,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
)
from qmemory import cli, nonmarkov
from qmemory.nonmarkov import CANONICAL_PAIR_LABEL, MAX_INTERVALS, canonical_measures
from qmemory.pairs import (
    MAX_GRID_SIZE,
    MAX_SCAN_POINTS,
    _candidate_pairs,
    _pair_weights,
    _refined_intervals,
    _sampled_estimates,
    _scan_grid,
    _sector_basis,
    _slope_bound,
)
from qmemory.errors import InvalidGridError, InvariantViolation, QmemoryError
from qmemory.validate import GENERIC_STATE, RNG_SEED

from helpers import (
    CANONICAL,
    FIRST_GAIN,
    FIRST_GAIN_END,
    MAXIMIZED_FIRST_END,
    MAXIMIZED_FIRST_GAIN,
    MAXIMIZED_FIRST_START,
    MAXIMIZED_GOLDEN,
    MAXIMIZED_LABEL,
    N_CANONICAL,
    N_CANONICAL_INTERVALS,
    N_MAXIMIZED_CANONICAL,
    N_OMEGA_01,
    N_OMEGA_05,
    T_STAR,
    blp_geometric_series,
    canonical_interval_columns,
    generator_modes,
    partial_trace_map,
    per_pair_estimates,
    product_pair_differences,
    product_state,
    random_params,
    reduced_distance,
    swap_geometric_series,
    threshold_ratio,
    trapezoid,
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
        riemann = trapezoid(np.maximum(sigma, 0.0), t)
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

    def test_intervals_read_as_records(self):
        result = blp_measure(CANONICAL)
        records = tuple(result.intervals)
        assert len(records) == len(result.intervals) == N_CANONICAL_INTERVALS
        assert all(isinstance(iv, IncreaseInterval) for iv in records)
        assert result.intervals == records and records[2:5] == result.intervals[2:5]
        assert result.intervals[-1] == records[-1]
        assert hash(result) == hash(blp_measure(CANONICAL))
        assert repr(result.intervals) == repr(records)
        # they compare and concatenate as the tuple they read as
        assert result.intervals != list(records)
        assert result.intervals + () == () + result.intervals == records
        iv = IncreaseInterval(t_start=1.0, t_end=2.0, gain=0.25)
        given = BlpResult(n_value=0.25, starts=(1.0,), ends=(2.0,), gains=(0.25,),
                          pair_label="x", truncation_time=10.0, tail_bound=0.0)
        assert given.intervals == (iv,)
        assert given == BlpResult(0.25, (1.0,), (2.0,), (0.25,), "x", 10.0, 0.0)

    def test_classification_builds_no_records(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("increase intervals were built")

        monkeypatch.setattr(nonmarkov, "IncreaseInterval", refuse)
        monkeypatch.setattr(nonmarkov, "blp_measure", refuse)
        # omega / R = 300 (the benchmark's stress point) and 1e4
        assert classify_dynamics(ModelParams(0.01, 0.0, 3.0)).interval_count == 2865
        assert classify_dynamics(ModelParams(0.001, 0.0, 10.0)).interval_count == 95493
        assert cli.main(["blp"]) == 0
        assert "intervals=19" in capsys.readouterr().out
        sweep = ["sweep", "--param", "omega", "--from", "0", "--to", "3", "--points", "2"]
        assert cli.main(sweep + ["--steps", "2"]) == 0
        assert cli.main(["blp", "--gamma", "0.001", "--m", "0", "--omega", "10"]) == 0
        assert "intervals=95493" in capsys.readouterr().out

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


def _window_draws(seed: int, count: int):
    """Seeded ``(params, t_max)``: omega / R log-uniform in [0.05, 1e4], t_max
    uniform up to the default truncation time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ratio = math.exp(rng.uniform(math.log(0.05), math.log(1e4)))
        gamma = float(rng.uniform(0.01, 1.0))
        m = float(rng.uniform(0.0, 3.0))
        params = ModelParams(gamma, m, ratio * gamma * (1.0 + 2.0 * m))
        yield params, float(rng.uniform(0.0, 1.0)) * default_truncation_time(params)


class TestClosedFormMeasure:
    """``classify_dynamics``' geometric sum against the intervals it does not build."""

    @staticmethod
    def _agrees(params, t_max):
        verdict = classify_dynamics(params, t_max=t_max)
        result = blp_measure(params, t_max=t_max)
        starts, ends, gains = canonical_interval_columns(params, t_max)
        assert (result.starts, result.ends, result.gains) == (starts, ends, gains)
        assert verdict.interval_count == len(result.gains)
        assert abs(verdict.n_value - math.fsum(result.gains)) <= 1e-12
        assert verdict.truncation_time == result.truncation_time
        assert verdict.tail_bound == result.tail_bound
        return verdict

    def test_matches_interval_sum_on_random_windows(self):
        for params, t_max in _window_draws(49, 2000):
            self._agrees(params, t_max)
        # N = 2404 here, where a geometric sum in doubles lands three units in
        # the last place (1.4e-12) away from the interval sum
        self._agrees(ModelParams(0.4958109808154627, 1.1939094988419585, 12689.33468327565),
                     13.650260646737346)

    def test_window_edges(self):
        assert self._agrees(CANONICAL, T_STAR).interval_count == 0
        verdict = self._agrees(CANONICAL, T_STAR * (1.0 + 1e-12))
        assert verdict.interval_count == 1 and 0.0 <= verdict.n_value < 1e-20
        (peak,) = blp_measure(CANONICAL, t_max=4.0).ends
        at_peak = self._agrees(CANONICAL, peak)
        assert at_peak.interval_count == 1
        assert at_peak.n_value == pytest.approx(FIRST_GAIN, abs=1e-12)
        in_rise = self._agrees(CANONICAL, 0.5 * (T_STAR + peak))
        assert 0.0 < in_rise.n_value < at_peak.n_value
        assert trace_distance_rate(CANONICAL, 0.5 * (T_STAR + peak)) > 0.0

    def test_windows_ending_at_a_zero(self):
        # where omega t_max / pi rounds up past a zero, or D(t_max) rounds below D(zero)
        rng = np.random.default_rng(50)
        for _ in range(200):
            params = ModelParams(float(rng.uniform(0.01, 1.0)), 0.0, math.exp(rng.uniform(-3, 5)))
            for k in (0, int(rng.integers(1, 1000))):
                zero = (0.5 * math.pi + k * math.pi) / params.omega
                for t_max in (zero, math.nextafter(zero, math.inf)):
                    assert self._agrees(params, t_max).n_value >= 0.0

    @pytest.mark.parametrize("omega", [0.0, 5e-324, 1e-300])
    def test_no_intervals_without_a_zero(self, omega):
        params = ModelParams(0.2, 0.5, omega)
        for t_max in (None, 1e300):
            verdict = classify_dynamics(params, eps=0.0, t_max=t_max)
            assert (verdict.n_value, verdict.interval_count, verdict.regime) == (0.0, 0, MARKOVIAN)
            assert verdict.result == blp_measure(params, t_max=t_max)

    def test_interval_limit_boundary(self):
        params = ModelParams(1.0, 0.0, 1.0)
        t_max = math.pi * MAX_INTERVALS
        assert params.omega * t_max / math.pi <= MAX_INTERVALS
        assert self._agrees(params, t_max).interval_count == MAX_INTERVALS
        for t_max in (math.nextafter(t_max, math.inf) * (1.0 + 1e-15), math.inf, -1.0):
            with pytest.raises(InvalidGridError) as measured:
                blp_measure(params, t_max=t_max)
            with pytest.raises(InvalidGridError) as classified:
                classify_dynamics(params, t_max=t_max)
            assert str(classified.value) == str(measured.value)

    def test_result_is_built_on_first_read(self):
        verdict = classify_dynamics(CANONICAL)
        assert "result" not in vars(verdict)
        assert verdict.result == blp_measure(CANONICAL)
        assert verdict.result is verdict.result
        moved = dataclasses.replace(verdict, n_value=0.5)
        assert moved.n_value == 0.5 and moved.regime == verdict.regime
        assert "result" not in vars(moved)
        assert moved == dataclasses.replace(verdict, n_value=0.5)


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
        columns = dict(starts=(1.0,), ends=(2.0,), gains=(0.25,))
        BlpResult(
            n_value=0.25, **columns, pair_label="x", truncation_time=10.0,
            tail_bound=0.0,
        )
        with pytest.raises(InvariantViolation):
            BlpResult(
                n_value=0.30, **columns, pair_label="x", truncation_time=10.0,
                tail_bound=0.0,
            )
        with pytest.raises(InvariantViolation):
            BlpResult(
                n_value=0.25, **columns, pair_label="x", truncation_time=10.0,
                tail_bound=-1e-3,
            )
        with pytest.raises(InvariantViolation):
            BlpResult(
                n_value=0.25, **columns, pair_label="x", truncation_time=0.0,
                tail_bound=0.0,
            )
        with pytest.raises(InvariantViolation, match="differ in length"):
            BlpResult(
                n_value=0.25, starts=(1.0, 3.0), ends=(2.0,), gains=(0.25,),
                pair_label="x", truncation_time=10.0, tail_bound=0.0,
            )


class TestRevivalTime:
    """The distance first touches zero at pi / (2 omega), where its rate
    turns from negative to positive."""

    def test_quarter_period_across_parameters(self):
        for gamma in (0.1, 0.2, 0.5):
            for m in (0.0, 0.5, 2.0):
                for omega in (0.3, 0.8, 1.5):
                    params = ModelParams(gamma, m, omega)
                    t_rev = math.pi / (2.0 * omega)
                    assert trace_distance_closed_form(params, t_rev) <= 1e-30
                    before = np.linspace(0.0, t_rev * (1.0 - 1e-6), 200)
                    assert np.max(trace_distance_rate(params, before)) < 0.0
                    assert trace_distance_rate(params, t_rev * (1.0 + 1e-6)) > 0.0

    def test_uncoupled_never_revives(self):
        params = ModelParams(0.2, 0.5, 0.0)
        t = np.linspace(0.0, default_truncation_time(params), 2001)
        assert np.max(trace_distance_rate(params, t)) <= 0.0


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


class TestFamilyMeasures:
    """``canonical_measures`` takes every member's N in one array pass; each
    equals that member's own ``classify_dynamics`` call bit for bit."""

    def test_every_member_matches_its_own_call(self):
        rng = np.random.default_rng(2112)
        size = 6000
        gamma = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), size))
        m = np.where(rng.random(size) < 0.2, 0.0,
                     np.exp(rng.uniform(math.log(1e-3), math.log(10.0), size)))
        rate = gamma * (1.0 + 2.0 * m)
        ratio = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size))
        # within 1e-12 relative of the eps = 1e-3 threshold x* = 0.376175...
        x_star = threshold_ratio(1e-3)
        assert x_star == pytest.approx(0.376175, abs=1e-6)
        ratio[:1000] = x_star * (1.0 + rng.uniform(-1e-12, 1e-12, 1000))
        omega = ratio * rate
        omega[1000:1100] = 0.0
        # just inside MAX_INTERVALS intervals of the default window 30 / R
        omega[1100:1400] = (MAX_INTERVALS * math.pi / 30.0 * rate[1100:1400]
                            * (1.0 - rng.uniform(1e-12, 1e-9, 300)))
        n_values = canonical_measures(ParamFamily(gamma, m, omega))
        flags = set()
        for i in range(size):
            verdict = classify_dynamics(ModelParams(float(gamma[i]), float(m[i]), float(omega[i])))
            assert n_values[i].tobytes() == np.float64(verdict.n_value).tobytes(), i
            if i < 1000:
                flags.add(verdict.regime)
        assert flags == {MARKOVIAN, NON_MARKOVIAN}  # the threshold members straddle x*
        assert np.count_nonzero(n_values[1000:1100]) == 0

    def test_family_shape(self):
        omega = np.array([[0.0, 0.1, 0.8], [1.0, 2.0, 40.0]])
        n_values = canonical_measures(ParamFamily(0.2, 0.5, omega))
        assert n_values.shape == (2, 3)
        for index in np.ndindex(omega.shape):
            assert n_values[index] == classify_dynamics(
                ModelParams(0.2, 0.5, float(omega[index]))).n_value

    def test_first_member_over_the_limit_raises_its_own_error(self):
        omega = np.array([0.8, 3.1e4, 3e4])
        with pytest.raises(InvalidGridError) as member:
            classify_dynamics(ModelParams(0.5, 0.5, 3.1e4))
        with pytest.raises(InvalidGridError, match=re.escape(str(member.value))):
            canonical_measures(ParamFamily(0.5, 0.5, omega))


class TestScalingCollapse:
    """The canonical measure over the default window is a function of
    ``x = omega / R`` alone, and nondecreasing in it."""

    def test_measure_nondecreasing_in_coupling_ratio(self):
        ratios = np.geomspace(1e-3, 3e3, 20001)
        n_values = [classify_dynamics(ModelParams(1.0, 0.0, float(x))).n_value for x in ratios]
        assert n_values[0] == 0.0 and n_values[-1] > 300.0
        assert np.all(np.diff(n_values) >= 0.0)

    def test_measure_depends_on_ratio_alone(self):
        rng = np.random.default_rng(66)
        for _ in range(2000):
            gamma = math.exp(rng.uniform(math.log(0.01), math.log(3.2)))
            m = float(rng.uniform(0.0, 3.0))
            ratio = math.exp(rng.uniform(math.log(0.03), math.log(30.0)))
            params = ModelParams(gamma, m, ratio * gamma * (1.0 + 2.0 * m))
            n_value = classify_dynamics(params).n_value
            unit = classify_dynamics(ModelParams(1.0, 0.0, params.omega / params.relaxation_rate))
            assert abs(n_value - unit.n_value) <= 1e-13 * unit.n_value


class TestCandidateTable:
    @pytest.mark.parametrize("grid_size", range(2, MAX_GRID_SIZE + 1))
    def test_matches_kron_oracle(self, grid_size):
        # the table rows are the k = 0 combinations alpha and beta and the
        # k = 1 combinations c1, c2, e1, e2 of the 16-entry pair differences;
        # real pairs have no imaginary part, so the weight eta = -Im d[1, 2]
        # of sin 2 omega t is exactly 0
        labels, table = _candidate_pairs(grid_size)
        oracle_labels, deltas = product_pair_differences(grid_size)
        assert labels == oracle_labels
        d = deltas.reshape(4, 4, -1)
        assert np.all(d.imag == 0.0)
        assert np.all(-d[1, 2].imag == 0.0)
        oracle = np.stack([(d[0, 0] + 0.5 * (d[1, 1] + d[2, 2])).real,
                           0.5 * (d[1, 1] - d[2, 2]).real,
                           (d[0, 2] + d[1, 3]).real, (d[0, 1] + d[2, 3]).real,
                           (d[0, 2] - d[1, 3]).real, (d[0, 1] - d[2, 3]).real])
        assert np.max(np.abs(table - oracle)) <= 1e-15


# omega / R = 1.05, where the sampled estimate of the |10>/|01> pair falls
# short of its series by more than its lead over a smoother competitor
SWAP_DEFECT_POINT = ModelParams(0.49335523078582455, 0.18559001921664953, 0.7119513917476399)


def sector_term_speeds(rows):
    """Speeds of the terms :func:`_slope_bound` bounds, from derivatives of the
    sector basis rows: ``alpha`` (also ``alpha + beta``), ``beta`` beside each,
    ``c1``, ``c2`` and ``omega (e1, e2)``."""
    return (np.abs(rows[0]), np.abs(rows[1]), np.abs(rows[1] - rows[0]),
            np.hypot(rows[2], rows[3]), np.abs(rows[3]), np.hypot(rows[4], rows[5]))


def assert_orthogonal_pure_winner(label, grid_size):
    """The winning pair's two product states are pure and mutually orthogonal."""
    thetas = {f"{th:.4f}": th for th in np.linspace(0.0, math.pi, grid_size).tolist()}
    pairs = re.fullmatch(r"theta\(([\d.]+),([\d.]+)\)/theta\(([\d.]+),([\d.]+)\)", label)
    angles = [thetas[text] for text in pairs.groups()]
    rho_a, rho_b = product_state(*angles[:2]), product_state(*angles[2:])
    assert abs(np.trace(rho_a @ rho_b)) < 1e-12
    for rho in (rho_a, rho_b):
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


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

    def test_not_below_swap_pair(self):
        # grid 5 contains the |10>/|01> pair, so N may not fall below its series
        result = blp_measure_maximized(SWAP_DEFECT_POINT, grid_size=5)
        assert result.n_value >= swap_geometric_series(SWAP_DEFECT_POINT) - 1e-9

    def test_near_resonance_not_below_analytic_pairs(self):
        # omega / R in [1, 1.2], where the swap pair's V-shaped minima cost its
        # sampled estimate most
        rng = np.random.default_rng(73)
        for _ in range(8):
            gamma, m = float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.0, 2.0))
            params = ModelParams(gamma, m, float(rng.uniform(1.0, 1.2)) * gamma * (1 + 2 * m))
            result = blp_measure_maximized(params, grid_size=5)
            floor = max(swap_geometric_series(params), blp_geometric_series(params))
            assert result.n_value >= floor - 1e-9

    def test_golden_table(self):
        # N within 1e-12 of the 16-entry construction; the label wherever its
        # best two candidates were more than 1e-12 apart
        for gamma, m, omega, grid_size, label, n_value in MAXIMIZED_GOLDEN:
            result = blp_measure_maximized(ModelParams(gamma, m, omega), grid_size=grid_size)
            assert abs(result.n_value - n_value) <= 1e-12, (gamma, m, omega, grid_size)
            if label is not None:
                assert result.pair_label == label, (gamma, m, omega, grid_size)

    def test_winner_is_orthogonal_pure_pair(self):
        # Wissmann et al., PRA 86, 062108 (2012): optimal pairs are orthogonal
        for params in (CANONICAL, SWAP_DEFECT_POINT):
            result = blp_measure_maximized(params, grid_size=5)
            assert_orthogonal_pure_winner(result.pair_label, grid_size=5)

    def test_batched_estimates_match_per_pair_route(self):
        rng = np.random.default_rng(71)
        labels, table = _candidate_pairs(3)
        for _ in range(20):
            params = random_params(rng)
            dt = default_scan_step(params)
            grid = _scan_grid(dt, min(default_truncation_time(params), 3000 * dt))
            weights, amplitudes = _pair_weights(params, table)
            basis = _sector_basis(params, grid)
            estimates, _ = _sampled_estimates(params, weights, amplitudes, grid, basis)
            reference = per_pair_estimates(params, 3, grid)
            assert np.max(np.abs(estimates - reference)) <= 1e-13

            def best(values):
                # mirror-image pairs tie exactly; rounding must not decide between them
                return min(label for label, value in zip(labels, values)
                           if value >= np.max(values) - 1e-13)

            assert best(estimates) == best(reference)

    @pytest.mark.parametrize("params, grid_size, t_max", [
        (CANONICAL, 3, None),
        (CANONICAL, 3, 0.5),  # some curves rise across the whole window
        (ModelParams(0.3, 1.0, 0.9), 3, None),
        (ModelParams(0.5, 0.0, 2.0), 3, None),
        (ModelParams(0.1, 2.0, 0.05), 3, None),
        (ModelParams(0.2, 0.5, 0.0), 3, None),
        (ModelParams(0.2, 0.5, 1e-6), 3, None),
        (SWAP_DEFECT_POINT, 5, None),
    ])
    def test_refinement_gain_within_bound(self, params, grid_size, t_max):
        # refine every candidate: each gains at most its bound over its estimate,
        # and the maximizer, which refines only some, picks the best of all
        t_max = t_max or default_truncation_time(params)
        grid = _scan_grid(default_scan_step(params), t_max)
        labels, table = _candidate_pairs(grid_size)
        weights, amplitudes = _pair_weights(params, table)
        basis = _sector_basis(params, grid)
        estimates, bounds = _sampled_estimates(params, weights, amplitudes, grid, basis)
        refined = [
            math.fsum(_refined_intervals(params, weights[p:p + 1], grid, basis)[2])
            for p in range(len(labels))
        ]
        assert np.all(np.array(refined) - estimates <= bounds)
        canonical = blp_measure(params, t_max=t_max)
        best_n, best_label = min(
            [(-n, label) for n, label in zip(refined, labels)]
            + [(-canonical.n_value, CANONICAL_PAIR_LABEL)]
        )
        result = blp_measure_maximized(params, grid_size=grid_size, t_max=t_max)
        assert result.pair_label == best_label
        assert result.n_value == -best_n

    @pytest.mark.parametrize("params, grid_size", [
        (CANONICAL, 5),
        (SWAP_DEFECT_POINT, 9),  # the winner has k = 1 content, which decays slowest
        (ModelParams(0.2, 0.5, 0.002), 5),
    ])
    def test_tail_bound_covers_later_gains(self, params, grid_size):
        # the rises of the winner's curve on (t_max, 4 t_max], from the
        # generator's modes, sampled four times finer than the maximizer samples
        result = blp_measure_maximized(params, grid_size=grid_size)
        labels, deltas = product_pair_differences(grid_size)
        t_max = result.truncation_time
        times = np.linspace(t_max, 4.0 * t_max, 12 * round(t_max / default_scan_step(params)))
        lam, vec, vec_inv = generator_modes(params)
        coeff = vec_inv @ deltas[:, labels.index(result.pair_label)]
        rows = partial_trace_map() @ (vec @ (np.exp(np.outer(lam, times)) * coeff[:, None]))
        rises = np.diff(reduced_distance(rows))
        later = math.fsum(rises[rises > 0.0].tolist())
        assert later <= result.tail_bound

    @pytest.mark.parametrize("omega", [0.0, 1e-6, 0.002, 0.05, 0.8, 3.0])
    def test_speed_bound_covers_each_sector_term(self, omega):
        # central differences of the sector basis rows against the per-term
        # speed bounds, which hold from each time on
        params = ModelParams(0.2, 0.5, omega)
        t = np.linspace(0.0, default_truncation_time(params), 4001)[1:]
        h = 1e-6
        rows = (_sector_basis(params, t + h) - _sector_basis(params, t - h)) / (2.0 * h)
        speed, _ = _slope_bound(params)
        for term, bound in zip(sector_term_speeds(rows), speed(t)):
            assert np.all(term <= bound * (1.0 + 1e-6) + 1e-12)
            assert np.all(np.diff(bound) <= 0.0)  # a supremum over [t, inf)

    @pytest.mark.parametrize("omega", [0.0, 1e-6, 0.002, 0.05, 0.8, 3.0])
    def test_tail_bound_covers_each_sector_term(self, omega):
        # trapezoid integrals of the per-term speeds over [t0, t0 + 100 / R]
        # against the tail rows; every term decays at least at R / 2, so the
        # rest is below e^{-50}
        params = ModelParams(0.2, 0.5, omega)
        _, tail = _slope_bound(params)
        for t0 in (0.0, 0.5 * default_truncation_time(params)):
            t = np.linspace(t0, t0 + 100.0 / params.relaxation_rate, 200001)
            h = 1e-6
            rows = (_sector_basis(params, t + h) - _sector_basis(params, t - h)) / (2.0 * h)
            for term, bound in zip(sector_term_speeds(rows), tail(t0)):
                integral = float(np.sum(0.5 * (term[1:] + term[:-1]) * np.diff(t)))
                assert integral <= bound * (1.0 + 1e-6) + 1e-12

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_tiny_rates_scale(self, omega):
        # rates near 1e-170 square to 0; the maximizer must give the measure of
        # the same dynamics at unit rates, on times 1e170 longer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = blp_measure_maximized(ModelParams(1e-170, 0.0, 1e-170 * omega), grid_size=3)
        unit = blp_measure_maximized(ModelParams(1.0, 0.0, omega), grid_size=3)
        assert tiny.n_value == pytest.approx(unit.n_value, abs=1e-9)
        assert tiny.truncation_time == pytest.approx(1e170 * unit.truncation_time)
        assert tiny.tail_bound == pytest.approx(unit.tail_bound, rel=1e-9)

    def test_memory_stays_within_blocks_at_strong_coupling(self):
        # omega / R = 250 at grid 9: about 2e5 rising runs over the 3240 pairs,
        # whose bounds computed at once take about 60 MB; block by block the
        # maximizer keeps the scan basis and one block of pairs
        tracemalloc.start()
        try:
            blp_measure_maximized(ModelParams(0.2, 0.0, 50.0), grid_size=9, t_max=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_grid_size_validation(self):
        for bad in (1, 0, -2):
            with pytest.raises(InvariantViolation):
                blp_measure_maximized(CANONICAL, grid_size=bad)

    def test_non_integer_grid_size_named(self):
        for bad in (3.0, "3", None):
            with pytest.raises(InvariantViolation, match=f"integer of at least 2, got {bad!r}"):
                blp_measure_maximized(CANONICAL, grid_size=bad)
        assert blp_measure_maximized(CANONICAL, grid_size=np.int64(3)).n_value == (
            blp_measure_maximized(CANONICAL, grid_size=3).n_value)

    def test_grid_size_limit(self):
        assert MAX_GRID_SIZE == 13
        # a short window keeps the largest accepted grid quick
        result = blp_measure_maximized(CANONICAL, grid_size=MAX_GRID_SIZE, t_max=2.0)
        assert result.n_value >= blp_measure(CANONICAL, t_max=2.0).n_value
        with pytest.raises(InvalidGridError, match="limit of 13"):
            blp_measure_maximized(CANONICAL, grid_size=MAX_GRID_SIZE + 1)

    def test_scan_point_limit(self):
        assert MAX_SCAN_POINTS == 1_000_000
        for dt in (1e-9, 5e-324, 75.0 / (MAX_SCAN_POINTS + 1)):
            with pytest.raises(InvalidGridError, match="1000000"):
                blp_measure_maximized(CANONICAL, grid_size=3, dt=dt, t_max=75.0)

    def test_phase_limit(self):
        # within the sample cap, but omega t_max overflows: the canonical
        # interval limit rejects it before any curve is sampled
        with pytest.raises(InvalidGridError, match="100000"):
            blp_measure_maximized(ModelParams(1.0, 0.0, 1e100), grid_size=3, t_max=1e250,
                                  dt=1e245)

    def test_interval_limit_checked_before_scan_points(self):
        # over both limits (2.5e6 intervals, 8e8 points at the default dt):
        # the canonical window check runs first
        with pytest.raises(InvalidGridError, match="above the limit of 100000 intervals"):
            blp_measure_maximized(CANONICAL, grid_size=3, t_max=1e7)

    def test_invalid_grid_arguments(self):
        with pytest.raises(InvalidGridError):
            blp_measure_maximized(CANONICAL, grid_size=3, dt=-0.1)
        with pytest.raises(InvalidGridError):
            blp_measure_maximized(CANONICAL, grid_size=3, t_max=0.0)


# --- every library entry point on extreme finite times ----------------------

EXTREME_TIMES = (5e-324, 1e-300, 1e300, sys.float_info.max)
ANY_TIME = st.sampled_from(EXTREME_TIMES) | st.floats(allow_nan=False, allow_infinity=False)
ANY_RATE = st.sampled_from((0.0, 1e-300, 1e-200, 0.2, 1e99)) | st.floats(0.0, 1e100)


def _finite_or_rejected(call):
    """Run ``call``: it returns finite fields or raises a QmemoryError, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except QmemoryError:
            return
    if isinstance(out, Classification):
        assert math.isfinite(out.n_value) and math.isfinite(out.eps)
        out = out.result
    if isinstance(out, BlpResult):
        fields = (out.n_value, out.truncation_time, out.tail_bound, *out.starts, *out.ends,
                  *out.gains)
        assert all(map(math.isfinite, fields)), out
    else:
        assert np.isfinite(out).all()


def subsystem_entropy(params, t):
    return entanglement_entropy(params, t, EntanglementVariant.SUBSYSTEM)


CLOSED_FORMS = (trace_distance_closed_form, trace_distance_rate, trace_distance_pair,
                population_from_excited, population_from_ground, entanglement_entropy,
                subsystem_entropy)


class TestClosedFormTimes:
    @pytest.mark.parametrize("form", CLOSED_FORMS)
    def test_rejects_times_outside_range(self, form):
        for t, bad in ((-1.0, "-1.0"), (math.nan, "nan"), (-math.inf, "-inf"),
                       (math.inf, "inf"), (np.array([0.0, 2.0, -0.5]), "-0.5"),
                       (np.array([[1.0, math.nan]]), "nan")):
            with pytest.raises(InvariantViolation,
                               match=re.escape(f"time must be finite and nonnegative, got {bad}")):
                form(CANONICAL, t)
        for t in (1e308, [0.0, 1e308]):
            with pytest.raises(InvariantViolation,
                               match=re.escape("phase 2 omega t overflows at t=1e+308, omega=2.0")):
                form(ModelParams(0.2, 0.5, 2.0), t)
        assert np.asarray(form(CANONICAL, np.empty((0, 3)))).shape == (0, 3)  # nothing to reject

    @pytest.mark.parametrize("form", CLOSED_FORMS)
    def test_decay_beyond_float_range(self, form):
        # R t overflows while the phase stays finite: the decays are 0, with no warning
        fast = ModelParams(1e99, 0.0, 1e-300)
        assert np.all(np.isfinite(form(fast, np.array([0.0, 1e300, sys.float_info.max]))))
        assert math.isfinite(form(fast, sys.float_info.max))


class TestClosedFormShapes:
    @pytest.mark.parametrize("form", CLOSED_FORMS)
    def test_scalar_times_give_floats(self, form):
        for t in (0.0, 1.5, T_STAR):
            expected = form(CANONICAL, t)
            for same in (np.float64(t), np.array(t)):
                value = form(CANONICAL, same)
                assert type(value) is float and value == expected
            assert type(expected) is float

    @pytest.mark.parametrize("form", CLOSED_FORMS)
    def test_arrays_keep_their_shape(self, form):
        rng = np.random.default_rng(73)
        for shape in ((7,), (3, 4), (0,), (2, 0)):
            t = rng.uniform(0.0, 20.0, shape)
            t.flat[:1] = 0.0
            value = form(CANONICAL, t)
            assert isinstance(value, np.ndarray) and value.shape == shape
            assert [form(CANONICAL, float(x)) for x in t.flat] == value.ravel().tolist()

    @pytest.mark.parametrize("form", (trace_distance_closed_form, trace_distance_rate))
    def test_float_time_matches_length_one_array(self, form):
        # validate's 1000 distance draws, then a point where squaring the
        # cosine with ** 2 rounded a float time and an array one ulp apart
        rows = np.random.default_rng(RNG_SEED).uniform(
            [0.05, 0.0, 0.0, 0.0], [1.0, 3.0, 1.5, 20.0], size=(1000, 4)).tolist()
        rows.append([0.9701857864245754, 1.038354369116501, 0.8371928998564766,
                     6.516677513379657])
        scalar, array = [], []
        for gamma, m, omega, t in rows:
            params = ModelParams(gamma, m, omega)
            scalar.append(form(params, t))
            array.append(form(params, np.array([t]))[0])
        assert np.array(scalar).tobytes() == np.array(array).tobytes()


class TestExtremeTimes:
    @settings(max_examples=300, derandomize=True)
    @given(gamma=ANY_RATE, m=ANY_RATE, omega=ANY_RATE, t_max=ANY_TIME, dt=ANY_TIME, t=ANY_TIME,
           points=st.floats(0.5, 1e4) | st.floats(1.001 * MAX_SCAN_POINTS, 1e300))
    # R t_max overflows while omega t_max stays within the interval limit
    @example(gamma=1e99, m=0.0, omega=1e-298, t_max=1e300, dt=1.0, t=1e300, points=1e4)
    def test_finite_or_named_error(self, gamma, m, omega, t_max, dt, t, points):
        try:
            params = ModelParams(gamma, m, omega)
        except QmemoryError:
            assume(False)
        _finite_or_rejected(lambda: blp_measure(params, dt, t_max))
        _finite_or_rejected(lambda: classify_dynamics(params, t_max=t_max))
        _finite_or_rejected(lambda: propagate_exact(GENERIC_STATE, params, t))
        _finite_or_rejected(lambda: propagate_exact(GENERIC_STATE, params, [0.0, t_max, t]))
        for form in CLOSED_FORMS:
            _finite_or_rejected(lambda: form(params, t))
            _finite_or_rejected(lambda: form(params, np.array([0.0, t_max, t])))
        # accepted samples stay at most 1e4 per curve, so each example is cheap
        _finite_or_rejected(lambda: blp_measure_maximized(params, 2, t_max / points, t_max))
        if not (dt > 0 and 1e4 < t_max / dt <= MAX_SCAN_POINTS):
            _finite_or_rejected(lambda: blp_measure_maximized(params, 2, dt, t_max))
