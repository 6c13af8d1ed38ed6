import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsqi
from cvsqi.errors import MissingCalibration, ValidationError
from cvsqi.labels import QualityLabel
from cvsqi.preprocess import (CALIBRATION_MS, CALIBRATION_SAMPLES, HEADROOM,
                              INTERP_SKIPS_FROM, SAMPLE_MS, TARGET_LEN, CalibrationWindow,
                              CvsCycle, CvsStream, _interp_rows, _unit_grid,
                              calibration_from_stream, cycles_from_stream, normalize_cycle,
                              normalize_dataset, segment_cycles, subject_scale_factor)


# --- the per-cycle loops that segment_cycles and normalize_dataset replaced,
# kept as their reference: every result and every error must match them;
# naive_scale_factor is the "naive" mode's factor, one cycle at a time ---

def loop_segment_cycles(cvs_stream, r_peaks, subject_id="", labels=None):
    rows = np.asarray(cvs_stream, dtype=np.float64)
    if rows.size and (rows.ndim != 2 or rows.shape[1] != 2):
        raise ValidationError(f"CVS stream must be (n, 2) rows of (t_ms, x), got {rows.shape}")
    rows = rows.reshape(-1, 2)
    t_ms, x = rows[:, 0].astype(np.int64), rows[:, 1]
    peaks = np.asarray(list(r_peaks), dtype=np.int64)
    n_cycles = max(peaks.size - 1, 0)
    if labels is not None and len(labels) != n_cycles:
        raise ValidationError(f"labels ({len(labels)},) vs cycles ({n_cycles},)")
    if peaks.size < 2:
        return []
    if np.any(np.diff(peaks) <= 0):
        raise ValidationError("r_peaks must be strictly increasing")
    if np.any(peaks % SAMPLE_MS != 0):
        raise ValidationError("R-peak timestamps must lie on the 10 ms grid")
    if t_ms.size == 0:
        raise ValidationError("empty CVS stream")
    t0 = t_ms[0]
    if np.any(np.diff(t_ms) != SAMPLE_MS) or t0 % SAMPLE_MS != 0:
        raise ValidationError("CVS stream must be contiguous on the 10 ms grid")
    cycles = []
    for ci, (a, b) in enumerate(zip(peaks[:-1], peaks[1:])):
        i0 = (a - t0) // SAMPLE_MS
        i1 = (b - t0) // SAMPLE_MS
        if i0 < 0 or i1 >= t_ms.size:
            raise ValidationError("R-peak outside the CVS stream")
        if i1 - i0 < 1:
            raise ValidationError(f"cycle at {a} ms has fewer than 2 samples")
        label = labels[ci] if labels is not None else QualityLabel.NORMAL
        cycles.append(CvsCycle(subject_id=subject_id, t_start_ms=int(a),
                               samples=x[i0:i1 + 1].copy(), label=label))
    return cycles


def naive_scale_factor(cycle):
    """A cycle's own scale factor, its max absolute sample, or the error of
    a zero or non-finite one."""
    s = float(np.max(np.abs(cycle.samples)))
    if not 0.0 < s < math.inf:                 # zero, NaN or inf
        if s == 0.0:
            raise ValidationError(f"cycle at {cycle.t_start_ms} ms is identically zero")
        raise ValidationError(f"cycle of subject {cycle.subject_id!r} at t_start_ms "
                              f"{cycle.t_start_ms} holds a non-finite sample")
    return s


def reference_normalize_cycle(cycle, scheme, scale):
    """normalize_cycle's values as it computed them with its own size step,
    before it shared one with normalize_dataset; its errors spelled out."""
    named = f"cycle of subject {cycle.subject_id!r} at t_start_ms {cycle.t_start_ms}"
    samples = cycle.samples
    if scale is not None:
        if not scale > 0:
            raise ValidationError(f"scale factor must be positive, got {scale}")
        if scale == math.inf:
            raise ValidationError(f"scale factor must be finite, got {scale}")
        with np.errstate(over="ignore"):   # a quotient that overflows fails below
            samples = samples / scale
    if scheme == "interp":
        if samples.size >= INTERP_SKIPS_FROM and not np.isfinite(samples).all():
            raise ValidationError(f"{named} holds a non-finite sample")
        values = np.interp(np.linspace(0.0, 1.0, TARGET_LEN),
                           np.linspace(0.0, 1.0, samples.size), samples)
    elif scheme == "pad":
        if samples.size > TARGET_LEN:
            raise ValidationError(f"cycle of {cycle.v} samples exceeds target length "
                                  f"{TARGET_LEN}")
        values = np.concatenate([samples, np.full(TARGET_LEN - samples.size, samples[-1])])
    else:
        raise ValidationError(f"unknown size-normalization scheme {scheme!r}")
    peak = float(np.abs(values).max())
    if not peak <= HEADROOM:                   # NaN fails it too
        if peak < math.inf:
            raise ValidationError(f"{named} has normalized peak {peak:.3g} above "
                                  f"headroom bound {HEADROOM}")
        raise ValidationError(f"{named} holds a non-finite sample")
    return values


def loop_normalize_dataset(cycles, scheme, scale_mode, calibrations=None):
    if scale_mode not in ("naive", "subject", "none"):
        raise ValidationError(f"unknown scale mode {scale_mode!r}, expected one of "
                              f"{('naive', 'subject', 'none')}")
    factors = {}
    if scale_mode == "subject":
        if not calibrations:
            raise ValidationError("subject scaling requires calibration windows (--calib)")
        factors = {sid: subject_scale_factor(cal) for sid, cal in calibrations.items()}
    if not cycles:
        raise ValidationError("empty cycle dataset")
    rows = []
    for c in cycles:
        if scale_mode == "subject":
            if c.subject_id not in factors:
                raise ValidationError(f"no calibration window for subject {c.subject_id!r}")
            scale = factors[c.subject_id]
        elif scale_mode == "naive":
            scale = naive_scale_factor(c)
        else:
            scale = None
        rows.append(normalize_cycle(c, scheme, scale).values)
    y_train = np.asarray([c.label.train_value for c in cycles])
    y_eval = np.asarray([c.label.eval_value for c in cycles], dtype=np.int64)
    return np.stack(rows), y_train, y_eval


def outcome(fn, *args):
    """What fn returns, down to the bits of every array and the sign of every
    zero, or the class and message of what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:           # any class: both sides must raise alike
        return type(exc), str(exc)
    if isinstance(result, tuple):      # normalize_dataset's arrays
        return [(a.dtype, a.shape, a.tobytes()) for a in result]
    return [(c.subject_id, c.t_start_ms, c.label, c.samples.tobytes()) for c in result]


def make_stream(x, t0=0):
    return [(t0 + 10 * i, float(v)) for i, v in enumerate(x)]


def cyc(samples, sid="s", t0=0):
    return CvsCycle(subject_id=sid, t_start_ms=t0, samples=np.asarray(samples, float))


def cal(samples, sid="s"):
    return CalibrationWindow(subject_id=sid, samples=np.asarray(samples, float))


class TestSegmentCycles:
    def test_single_750ms_cycle(self):
        stream = make_stream(np.arange(100.0))
        cycles = segment_cycles(stream, [0, 750])
        assert len(cycles) == 1
        assert cycles[0].v == 76

    def test_minimal_cycle(self):
        cycles = segment_cycles(make_stream([1.0, 2.0, 3.0]), [0, 10])
        assert cycles[0].v == 2

    def test_shared_boundary_sample(self):
        stream = make_stream(np.arange(30.0))
        cycles = segment_cycles(stream, [0, 100, 250])
        assert len(cycles) == 2
        assert cycles[0].samples[-1] == cycles[1].samples[0]

    def test_off_grid_peak_rejected(self):
        with pytest.raises(ValidationError,
                           match="^R-peak timestamps must lie on the 10 ms grid$"):
            segment_cycles(make_stream(np.zeros(20)), [0, 95])

    def test_partition_reconstructs_stream(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        peak_idx = np.sort(rng.choice(np.arange(1, 199), size=5, replace=False))
        peaks = [0] + (peak_idx * 10).tolist() + [1990]
        cycles = segment_cycles(make_stream(x), peaks)
        glued = np.concatenate([cycles[0].samples]
                               + [c.samples[1:] for c in cycles[1:]])
        assert np.array_equal(glued, x)

    def test_array_and_pair_list_agree(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=120)
        t_ms = 500 + 10 * np.arange(x.size)
        peaks, labels = [500, 800, 1310, 1690], list(QualityLabel)
        from_array = segment_cycles(np.column_stack((t_ms, x)), peaks, "s", labels)
        from_pairs = segment_cycles(make_stream(x, t0=500), peaks, "s", labels)
        starts = [(c.t_start_ms, c.label) for c in from_array]
        assert starts == [(c.t_start_ms, c.label) for c in from_pairs]
        assert starts == [(500, labels[0]), (800, labels[1]), (1310, labels[2])]
        for a, b in zip(from_array, from_pairs):
            assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("n_labels", [0, 1, 3])
    def test_label_count_must_match_the_cycles(self, n_labels):
        # too few labels used to raise IndexError, too many were dropped
        with pytest.raises(ValidationError, match=rf"^labels \({n_labels},\) vs cycles \(2,\)$"):
            segment_cycles(make_stream(np.arange(30.0)), [0, 100, 250], "s",
                           [QualityLabel.MOTION] * n_labels)

    @pytest.mark.parametrize("stream", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_empty_stream_rejected(self, stream):
        with pytest.raises(ValidationError, match="empty CVS stream"):
            segment_cycles(stream, [0, 10])

    @pytest.mark.parametrize("stream", [np.zeros((4, 3)), np.zeros(8), [(0, 1.0, 2.0)]],
                             ids=["three-columns", "flat", "triples"])
    def test_non_pair_rows_rejected(self, stream):
        with pytest.raises(ValidationError, match=r"\(n, 2\) rows"):
            segment_cycles(stream, [0, 10])


    def test_matches_the_per_cycle_loop_on_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            t0 = SAMPLE_MS * int(rng.integers(0, 10_000))
            x = rng.normal(size=n)
            idx = np.sort(rng.choice(n, size=int(rng.integers(2, min(n, 40) + 1)),
                                     replace=False))
            peaks = (t0 + SAMPLE_MS * idx).tolist()
            labels = [QualityLabel(rng.choice([q.value for q in QualityLabel]))
                      for _ in peaks[1:]] if rng.random() < 0.5 else None
            stream = np.column_stack((t0 + SAMPLE_MS * np.arange(n), x))
            got = segment_cycles(stream, peaks, "r", labels)
            assert outcome(lambda: got) == outcome(loop_segment_cycles, stream, peaks,
                                                   "r", labels)
            assert all(type(c.t_start_ms) is int for c in got)

    @pytest.mark.parametrize("case", [
        "empty", "three-columns", "one-peak", "no-peaks", "equal-peaks", "decreasing",
        "off-grid", "gap", "t0-off-grid", "before-stream", "after-stream",
        "both-outside", "short-labels", "long-labels", "at-the-ends"])
    def test_every_error_case_matches_the_per_cycle_loop(self, case):
        t0, n = 500, 60
        x = np.sin(np.arange(n) / 7.0)
        stream = np.column_stack((t0 + SAMPLE_MS * np.arange(n), x))
        peaks, labels = [600, 900, 1000], None
        if case == "empty":
            stream = np.empty((0, 2))
        elif case == "three-columns":
            stream = np.zeros((4, 3))
        elif case == "one-peak":
            peaks = [600]
        elif case == "no-peaks":
            peaks = []
        elif case == "equal-peaks":
            peaks = [600, 900, 900]
        elif case == "decreasing":
            peaks = [900, 600]
        elif case == "off-grid":
            peaks = [600, 905]
        elif case == "gap":
            stream = np.delete(stream, 20, axis=0)
        elif case == "t0-off-grid":
            stream[:, 0] += 5
        elif case == "before-stream":
            peaks = [490, 600, 900]
        elif case == "after-stream":
            peaks = [600, 900, t0 + SAMPLE_MS * n]
        elif case == "both-outside":
            peaks = [0, 700, 5000]
        elif case == "short-labels":
            labels = [QualityLabel.MOTION]
        elif case == "long-labels":
            labels = [QualityLabel.MOTION] * 3
        elif case == "at-the-ends":
            peaks = [t0, t0 + SAMPLE_MS * (n - 1)]
        assert outcome(segment_cycles, stream, peaks, "e", labels) == \
            outcome(loop_segment_cycles, stream, peaks, "e", labels)


class TestStreamHelpers:
    def stream(self, seconds, n_labels):
        t_ms = np.arange(seconds * 100, dtype=np.int64) * 10
        peaks = np.arange(0, t_ms[-1], 800)
        labels = [QualityLabel.MOTION] * n_labels
        return CvsStream(t_ms, np.sin(t_ms / 100.0), peaks, labels)

    def test_labels_kept_only_one_per_gap(self):
        s = self.stream(30, 0)
        n_gaps = s.r_peaks.size - 1
        for n, want in ((n_gaps, QualityLabel.MOTION), (n_gaps - 1, QualityLabel.NORMAL)):
            cycles = cycles_from_stream(self.stream(30, n), "p", skip_calibration=False)
            assert len(cycles) == n_gaps
            assert all(c.label is want and c.subject_id == "p" for c in cycles)

    def test_skip_calibration_drops_the_first_20_s(self):
        s = self.stream(30, 0)
        starts = [c.t_start_ms for c in cycles_from_stream(s, "p", skip_calibration=False)]
        kept = [c.t_start_ms for c in cycles_from_stream(s, "p")]
        assert kept == [t for t in starts if t >= CALIBRATION_MS]
        assert 0 < len(kept) < len(starts)

    def test_calibration_is_the_first_20_s(self):
        s = self.stream(30, 0)
        window = calibration_from_stream(s, "p")
        assert window.subject_id == "p"
        assert np.array_equal(window.samples, s.cvs[:CALIBRATION_SAMPLES])
        with pytest.raises(MissingCalibration):
            calibration_from_stream(self.stream(19, 0), "p")


class TestScaleFactors:
    def test_naive_max_abs(self):
        x, _, _ = normalize_dataset([cyc([1.0, -3.0, 2.0])], "pad", "naive")
        assert np.array_equal(x[0, :3], np.array([1.0, -3.0, 2.0]) / 3.0)

    def test_naive_all_zero(self):
        with pytest.raises(ValidationError, match="^cycle at 0 ms is identically zero$"):
            normalize_dataset([cyc([0.0, 0.0])], "pad", "naive")

    def test_naive_matches_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=40)
        best = 0.0
        for v in samples:
            best = max(best, abs(v))
        x, _, _ = normalize_dataset([cyc(samples)], "pad", "naive")
        assert np.array_equal(x[0, :40], samples / best)

    def test_subject_single_spike(self):
        w = np.full(CALIBRATION_SAMPLES, 0.1)
        w[137] = 5.0
        assert subject_scale_factor(cal(w)) == 5.0

    def test_subject_constant_window(self):
        assert subject_scale_factor(cal(np.full(CALIBRATION_SAMPLES, 2.0))) == 2.0

    def test_subject_all_zero(self):
        with pytest.raises(ValidationError,
                           match="^calibration window for s is identically zero$"):
            subject_scale_factor(cal(np.zeros(CALIBRATION_SAMPLES)))

    def test_subject_matches_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=CALIBRATION_SAMPLES)
        assert subject_scale_factor(cal(samples)) == max(abs(v) for v in samples)

    def test_calibration_scales_itself_to_unit_peak(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=CALIBRATION_SAMPLES) * 3.0
        s = subject_scale_factor(cal(samples))
        assert np.max(np.abs(samples / s)) == pytest.approx(1.0, rel=1e-12)


class TestCalibrationWindow:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        w = np.full(CALIBRATION_SAMPLES, 0.1)
        w[[137, 900]] = bad
        with pytest.raises(ValidationError, match=r"subject 'p7'.* at index 137"):
            cal(w, sid="p7")


class TestScaleNormalize:
    def test_unit_scale_identity(self):
        c = cyc([1.0, -2.0, 0.5])
        assert np.array_equal(normalize_cycle(c, "pad", 1.0).values[:3], c.samples)

    def test_division(self):
        assert np.array_equal(normalize_cycle(cyc([2.0, -4.0]), "pad", 4.0).values[:2],
                              np.array([0.5, -1.0]))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValidationError, match=r"^scale factor must be positive, got 0\.0$"):
            normalize_cycle(cyc([1.0, 2.0]), "pad", 0.0)

    @pytest.mark.parametrize("scheme", ["interp", "pad"])
    def test_infinite_scale_rejected(self, scheme):
        # every finite sample over inf is 0: an all-zero cycle that would pass
        with pytest.raises(ValidationError, match=r"^scale factor must be finite, got inf$"):
            normalize_cycle(cyc([0.5, 2.0, 1.0]), scheme, math.inf)

    def test_subject_scaling_preserves_spike_naive_flattens_it(self):
        # calibration peak 1, cycle spike 3x that peak
        window = cal(np.sin(np.linspace(0, 20 * np.pi, CALIBRATION_SAMPLES)))
        spike = cyc([0.1, 3.0, 0.1])
        s_sub = subject_scale_factor(window)
        s_naive = naive_scale_factor(spike)
        sub_max = np.max(np.abs(normalize_cycle(spike, "pad", s_sub).values))
        naive_max = np.max(np.abs(normalize_cycle(spike, "pad", s_naive).values))
        assert sub_max == pytest.approx(3.0, rel=1e-6)
        assert naive_max == pytest.approx(1.0, rel=1e-12)

    def test_peak_ratio_survives_subject_scaling(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=CALIBRATION_SAMPLES)
        k = float(rng.uniform(1.5, 3.0))
        window = cal(base)
        peak = np.max(np.abs(base))
        c = cyc([0.0, k * peak, 0.0])
        scaled = normalize_cycle(c, "pad", subject_scale_factor(window))
        assert np.max(np.abs(scaled.values)) == pytest.approx(k, rel=1e-12)
        naive = normalize_cycle(c, "pad", naive_scale_factor(c))
        assert np.max(np.abs(naive.values)) == pytest.approx(1.0, rel=1e-12)


class TestResampleLinear:
    def test_two_point_interpolation(self):
        # [0, 1] resampled to an even grid is the grid itself: out[j] = j/(n-1)
        out = normalize_cycle(cyc([0.0, 1.0]), "interp", None)
        assert np.allclose(out.values, np.linspace(0.0, 1.0, TARGET_LEN))
        quarter = (TARGET_LEN - 1) // 2
        assert out.values[0] == 0.0
        assert out.values[-1] == 1.0
        assert out.values[quarter] == pytest.approx(quarter / (TARGET_LEN - 1))

    def test_constant_invariance(self):
        out = normalize_cycle(cyc(np.full(30, 0.7)), "interp", None)
        assert np.all(out.values == 0.7)

    def test_identity_grid(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=TARGET_LEN)
        out = normalize_cycle(cyc(x), "interp", None)
        assert np.allclose(out.values, x, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=140))
    def test_bounds_preserved(self, samples):
        out = normalize_cycle(cyc(samples), "interp", None)
        assert out.values.min() >= min(samples) - 1e-12
        assert out.values.max() <= max(samples) + 1e-12
        assert out.values.size == TARGET_LEN


    def test_batched_rows_are_np_interp_bit_for_bit(self):
        # finite rows of every length up to 600 samples, at magnitudes from
        # 1e-300 to 1e300 (and near overflow, where slopes become inf), with
        # signed zeros and runs of repeated values
        rng = np.random.default_rng(0)
        cases = 0
        for v in range(2, 601):
            for magnitude in (1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300, 1e307):
                rows = np.clip(rng.normal(size=(4, v)), -17.0, 17.0) * magnitude
                rows[1, ::3], rows[1, 1::3] = 0.0, -0.0
                rows[2, 1::2] = rows[2, 0:v - 1:2]
                rows[3] = np.repeat(rows[3, ::5], 5)[:v]
                want = [np.interp(_unit_grid(TARGET_LEN), _unit_grid(v), r) for r in rows]
                assert _interp_rows(rows).tobytes() == np.stack(want).tobytes(), (v, magnitude)
                cases += 1
        assert cases == 599 * 8

    def test_batched_rows_are_non_finite_where_np_interp_is(self):
        rng = np.random.default_rng(1)
        for v in range(2, 601):
            rows = rng.normal(size=(6, v))
            for r, bad in enumerate((np.nan, np.inf, -np.inf, np.nan, np.inf, -np.inf)):
                rows[r, rng.integers(v, size=1 + r // 3)] = bad
            want = np.stack([np.interp(_unit_grid(TARGET_LEN), _unit_grid(v), r)
                             for r in rows])
            assert np.array_equal(np.isfinite(_interp_rows(rows)), np.isfinite(want)), v


class TestEndpoints:
    def test_first_and_last_values_are_the_scaled_end_samples(self):
        # np.interp returns both grid ends exactly, so normalize_cycle needs
        # no endpoint assignment of its own
        rng = np.random.default_rng(0)
        cases = 0
        for magnitude in 10.0 ** np.arange(-300, 301, 50):
            for v in range(2, 600):
                samples = magnitude * rng.uniform(-4.0, 4.0, v)
                for scale in (magnitude, None if magnitude <= 1.0 else magnitude / 2):
                    scaled = samples if scale is None else samples / scale
                    for scheme in ("interp", "pad") if v <= TARGET_LEN else ("interp",):
                        values = normalize_cycle(cyc(samples), scheme, scale).values
                        assert (values[0], values[-1]) == (scaled[0], scaled[-1]), (
                            magnitude, v, scale, scheme)
                        cases += 1
        assert cases > 15_000


class TestPadConstant:
    def test_repeat_last(self):
        out = normalize_cycle(cyc([1.0, 2.0, 3.0]), "pad", None)
        assert np.array_equal(out.values[:3], [1, 2, 3])
        assert np.all(out.values[3:] == 3.0)

    def test_full_length_identity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=TARGET_LEN)
        assert np.array_equal(normalize_cycle(cyc(x), "pad", None).values, x)

    def test_too_long_rejected(self):
        with pytest.raises(ValidationError,
                           match="^cycle of 151 samples exceeds target length 150$"):
            normalize_cycle(cyc(np.ones(TARGET_LEN + 1)), "pad", None)

    def test_structure(self, seed):
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, TARGET_LEN))
        x = rng.normal(size=v)
        out = normalize_cycle(cyc(x), "pad", None).values
        assert np.array_equal(out[:v], x)
        assert np.all(out[v:] == x[-1])
        assert out.size == TARGET_LEN


class TestNormalizeDataset:
    def test_subject_mode_requires_calibration(self):
        with pytest.raises(ValidationError):
            normalize_dataset([cyc([1.0, 2.0])], "interp", "subject")

    def test_modes_and_schemes(self, seed):
        rng = np.random.default_rng(seed)
        labels = list(QualityLabel)
        cycles = [CvsCycle("a", 600 * i, rng.normal(size=60), labels[i % 3])
                  for i in range(4)]
        cals = {"a": cal(rng.normal(size=CALIBRATION_SAMPLES))}
        scales = {"naive": naive_scale_factor, "none": lambda c: None,
                  "subject": lambda c: subject_scale_factor(cals["a"])}
        for scheme in ("interp", "pad"):
            for mode in ("naive", "subject", "none"):
                x, y_train, y_eval = normalize_dataset(cycles, scheme, mode, cals)
                rows = [normalize_cycle(c, scheme, scales[mode](c)).values for c in cycles]
                assert np.array_equal(x, np.stack(rows))
                assert np.array_equal(y_train, [c.label.train_value for c in cycles])
                assert np.array_equal(y_eval, [c.label.eval_value for c in cycles])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="empty cycle dataset"):
            normalize_dataset([], "interp", "none")

    def test_short_cycle_rejected(self):
        with pytest.raises(ValidationError, match="^cycle needs at least 2 samples, got 1$"):
            cyc([1.0])


    @pytest.mark.parametrize("magnitude", [1e-300, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e300])
    @pytest.mark.parametrize("mode", ["subject", "naive", "none"])
    @pytest.mark.parametrize("scheme", ["interp", "pad"])
    def test_equals_stacked_normalize_cycle_bit_for_bit(self, scheme, mode, magnitude):
        # every length the scheme takes, 2 to 600 samples for interp and 2 to
        # TARGET_LEN for pad, shuffled over two subjects, with signed zeros
        rng = np.random.default_rng(int(np.log10(magnitude)) % 7)
        longest = 600 if scheme == "interp" else TARGET_LEN
        labels = list(QualityLabel)
        cycles = []
        for i, v in enumerate(rng.permutation(np.arange(2, longest + 1))):
            x = rng.uniform(-1.0, 1.0, int(v)) * magnitude
            x[1::7], x[3::11] = -0.0, 0.0
            cycles.append(CvsCycle(("p", "q")[i % 2], 10 * i, x, labels[i % 3]))
        cals = {sid: cal(np.full(CALIBRATION_SAMPLES, peak * magnitude), sid)
                for sid, peak in (("p", 1.0), ("q", -0.75))}
        got = outcome(normalize_dataset, cycles, scheme, mode, cals)
        assert got == outcome(loop_normalize_dataset, cycles, scheme, mode, cals)
        # only unscaled cycles above the headroom bound fail, in both
        assert isinstance(got, list) == (mode != "none" or magnitude <= 1.0)

    def test_headroom_in_cycle_1_wins_over_missing_calibration_in_cycle_3(self):
        cycles = [cyc([0.1, 0.2], sid="a", t0=0), cyc([0.1, 0.2, 50.0], sid="a", t0=10),
                  cyc([0.3, 0.2], sid="a", t0=30), cyc([0.1, 0.2], sid="b", t0=40)]
        cals = {"a": cal(np.ones(CALIBRATION_SAMPLES), "a")}
        for scheme in ("interp", "pad"):
            with pytest.raises(ValidationError, match=r"^cycle of subject 'a' at t_start_ms "
                               r"10 has normalized peak 50 above headroom bound 10.0$"):
                normalize_dataset(cycles, scheme, "subject", cals)
            assert outcome(normalize_dataset, cycles, scheme, "subject", cals) == \
                outcome(loop_normalize_dataset, cycles, scheme, "subject", cals)

    # one cycle failing two checks at once: the one the loop meets first names it
    TWO_FAULTS = [
        ("interp", "subject", "b", np.r_[0.5, 1e3, 0.5],
         "no calibration window for subject 'b'"),
        ("pad", "naive", "a", np.r_[np.nan, np.ones(199)],
         "cycle of subject 'a' at t_start_ms 0 holds a non-finite sample"),
        ("pad", "naive", "a", np.zeros(200), "cycle at 0 ms is identically zero"),
        ("interp", "none", "a", np.r_[1e3, np.nan, np.full(298, 1e3)],
         "cycle of subject 'a' at t_start_ms 0 holds a non-finite sample"),
        ("pad", "none", "a", np.full(200, 1e3), "cycle of 200 samples exceeds target length 150"),
    ]

    @pytest.mark.parametrize("scheme, mode, sid, samples, message", TWO_FAULTS,
                             ids=["no-window+headroom", "nan+too-long", "zero+too-long",
                                  "unreached-nan+headroom", "too-long+headroom"])
    def test_a_cycle_failing_two_checks_raises_the_first(self, scheme, mode, sid, samples,
                                                          message):
        cycles = [cyc(samples, sid=sid)]
        cals = {"a": cal(np.ones(CALIBRATION_SAMPLES), "a")}
        got = outcome(normalize_dataset, cycles, scheme, mode, cals)
        assert got == (ValidationError, message)
        assert got == outcome(loop_normalize_dataset, cycles, scheme, mode, cals)

    FAULTS = ("nan", "inf", "-inf", "huge", "zero", "no-window", "long", "nan-skipped")
    # the errors the faults must reach, told apart by their messages
    KINDS = ("non-finite", "identically zero", "exceeds target length",
             "above headroom bound", "no calibration window")

    def test_the_first_failing_cycle_raises_the_loops_error(self, seed):
        # random datasets with up to three faults in random cycles: whatever
        # the loop raises first, for whichever cycle, normalize_dataset raises
        rng = np.random.default_rng(seed)
        raised = set()
        for _ in range(300):
            scheme = ("interp", "pad", "resample")[rng.choice(3, p=[0.5, 0.45, 0.05])]
            mode = ("subject", "naive", "none")[rng.integers(3)]
            cycles = [cyc(rng.uniform(-2.0, 2.0, int(rng.integers(2, 140))), sid="a",
                          t0=100 * i) for i in range(int(rng.integers(1, 9)))]
            for _ in range(int(rng.integers(0, 4))):
                c = cycles[rng.integers(len(cycles))]
                fault = self.FAULTS[rng.integers(len(self.FAULTS))]
                if fault in ("long", "nan-skipped"):
                    c.samples = rng.uniform(-2.0, 2.0, int(rng.integers(TARGET_LEN + 1, 700)))
                    if fault == "nan-skipped" and c.samples.size >= INTERP_SKIPS_FROM:
                        c.samples[1] = np.nan          # a sample interp does not reach
                elif fault == "no-window":
                    c.subject_id = "b"
                elif fault == "zero":
                    c.samples[:] = 0.0
                else:
                    c.samples[rng.integers(c.samples.size)] = {
                        "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "huge": 1e3}[fault]
            cals = {"a": cal(rng.uniform(0.5, 1.0, CALIBRATION_SAMPLES), "a")}
            got = outcome(normalize_dataset, cycles, scheme, mode, cals)
            assert got == outcome(loop_normalize_dataset, cycles, scheme, mode, cals)
            if not isinstance(got, list):
                raised.update(kind for kind in self.KINDS if kind in got[1])
        assert set(self.KINDS) <= raised


SPECIAL_SAMPLES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
                   HEADROOM, -HEADROOM)
SCALES = (None, 1e-300, 0.37, 1.0, 1e300, 0.0, -1.0, math.nan, math.inf)


def cycle_outcome(fn, *args):
    """The bits of a normalized cycle's values, or the class and message of
    what fn raises; a RuntimeWarning is raised too, so both sides must warn alike."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            values = fn(*args)
        except Exception as exc:
            return type(exc), str(exc)
    return getattr(values, "values", values).tobytes()


class TestReferenceNormalizeCycle:
    """normalize_cycle against its own copy from before the shared size step,
    over lengths on both sides of TARGET_LEN and INTERP_SKIPS_FROM, samples
    mixed with NaN, infinities, signed zeros, extremes and the headroom bound,
    and every kind of scale and scheme."""

    @settings(max_examples=400, deadline=None)
    @given(v=st.one_of(st.integers(2, 700), st.sampled_from([150, 151, 298, 299, 300])),
           seed=st.integers(0, 2 ** 32 - 1),
           amplitude=st.sampled_from([1.0, 4.0, 30.0]),
           specials=st.lists(st.tuples(st.integers(0, 699), st.sampled_from(SPECIAL_SAMPLES)),
                             max_size=4),
           scale=st.sampled_from(SCALES), scheme=st.sampled_from(["interp", "pad", "spline"]))
    def test_matches_the_reference(self, v, seed, amplitude, specials, scale, scheme):
        samples = np.random.default_rng(seed).uniform(-amplitude, amplitude, v)
        for i, value in specials:
            samples[i % v] = value
        c = cyc(samples, sid="s07", t0=21_000)
        got = cycle_outcome(normalize_cycle, c, scheme, scale)
        assert got == cycle_outcome(reference_normalize_cycle, c, scheme, scale)
        if scale is not None and 0.0 < scale < math.inf:
            window = {"s07": cal(np.full(CALIBRATION_SAMPLES, scale), "s07")}
            assert subject_scale_factor(window["s07"]) == scale
            assert got == cycle_outcome(
                lambda: normalize_dataset([c], scheme, "subject", window)[0][0])


class TestNonFiniteCycle:
    """A NaN or inf sample is one ValidationError naming the cycle, in every
    scale mode and size scheme."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["subject", "none", "naive"])
    @pytest.mark.parametrize("scheme", ["interp", "pad"])
    def test_rejected_naming_subject_and_start(self, bad, mode, scheme):
        x = np.sin(np.linspace(0.0, 3.0, 80))
        x[10] = bad
        cycles = [cyc(x[::-1], sid="s03", t0=48_590), cyc(x, sid="s03", t0=49_390)]
        with pytest.raises(ValidationError, match=r"^cycle of subject 's03' at "
                           r"t_start_ms 48590 holds a non-finite sample$"):
            normalize_dataset(cycles, scheme, mode, {"s03": cal(np.ones(CALIBRATION_SAMPLES))})

    @pytest.mark.parametrize("v", [2, 150, 298])
    def test_every_sample_reaches_the_interp_output(self, v):
        for k in range(v):
            x = np.ones(v)
            x[k] = np.nan
            with pytest.raises(ValidationError, match="non-finite"):
                normalize_cycle(cyc(x), "interp", None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["subject", "naive", "none"])
    def test_long_cycle_rejected_whichever_sample_is_bad(self, bad, mode):
        # from INTERP_SKIPS_FROM samples on, interp does not reach every
        # sample; a 299-sample cycle with a NaN at index 1 once normalized
        # to a finite vector
        assert INTERP_SKIPS_FROM == 299
        cals = {"s": cal(np.full(CALIBRATION_SAMPLES, 2.0))}
        scale = {"subject": 2.0, "none": None}
        message = r"^cycle of subject 's' at t_start_ms 7000 holds a non-finite sample$"
        for v in (299, 300, 301, 450, 599, 600):
            for k in range(v):
                x = np.full(v, 0.5)
                x[k] = bad
                c = cyc(x, t0=7000)
                with pytest.raises(ValidationError, match=message):
                    normalize_dataset([c], "interp", mode, cals)
                with pytest.raises(ValidationError, match=message):
                    if mode == "naive":
                        naive_scale_factor(c)
                    else:
                        normalize_cycle(c, "interp", scale[mode])

    def test_headroom_names_the_cycle(self):
        with pytest.raises(ValidationError, match=r"^cycle of subject 'a' at t_start_ms "
                           r"800 has normalized peak 11 above headroom bound 10.0$"):
            normalize_cycle(cyc([0.0, 11.0, 1.0], sid="a", t0=800), "pad", None)

    @pytest.mark.parametrize("scheme,v", [("interp", 3), ("interp", 400), ("pad", 3),
                                          ("pad", 150)])
    def test_scaling_overflow_is_a_non_finite_sample_and_no_warning(self, scheme, v):
        # 1e300 / 1e-10 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"^cycle of subject 'a' at "
                               r"t_start_ms 0 holds a non-finite sample$"):
                normalize_cycle(cyc(np.r_[1e300, np.arange(1.0, v)], sid="a"), scheme, 1e-10)


@pytest.mark.parametrize("module,loads", [
    ("preprocess", {"errors", "labels", "preprocess"}),
    ("forward", {"errors", "labels", "preprocess", "forward"}),
    ("dataio", {"errors", "labels", "preprocess", "dataio"}),
])
def test_import_loads_no_model_code(module, loads):
    # a fresh interpreter, as this one has loaded every module; nn, autodiff
    # and kernels are model code that signal handling and file formats never run
    code = (f"import sys, cvsqi.{module}\n"
            "print(*(m[6:] for m in sys.modules if m.startswith('cvsqi.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cvsqi.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loads
