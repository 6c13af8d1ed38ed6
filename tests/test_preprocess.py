import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsqi.errors import (AllZeroCycle, AllZeroWindow, CycleLongerThanTarget,
                          MissingCalibration, NonPositiveScale, PeakOffGrid,
                          TooShortCycle, ValidationError)
from cvsqi.labels import QualityLabel
from cvsqi.preprocess import (CALIBRATION_MS, CALIBRATION_SAMPLES, TARGET_LEN,
                              CalibrationWindow, CvsCycle, CvsStream,
                              calibration_from_stream, cycles_from_stream,
                              naive_scale_factor, normalize_cycle,
                              normalize_dataset, segment_cycles,
                              subject_scale_factor)


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
        with pytest.raises(PeakOffGrid):
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

    @pytest.mark.parametrize("stream", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_empty_stream_rejected(self, stream):
        with pytest.raises(ValidationError, match="empty CVS stream"):
            segment_cycles(stream, [0, 10])

    @pytest.mark.parametrize("stream", [np.zeros((4, 3)), np.zeros(8), [(0, 1.0, 2.0)]],
                             ids=["three-columns", "flat", "triples"])
    def test_non_pair_rows_rejected(self, stream):
        with pytest.raises(ValidationError, match=r"\(n, 2\) rows"):
            segment_cycles(stream, [0, 10])


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
        assert naive_scale_factor(cyc([1.0, -3.0, 2.0])) == 3.0

    def test_naive_all_zero(self):
        with pytest.raises(AllZeroCycle):
            naive_scale_factor(cyc([0.0, 0.0]))

    def test_naive_matches_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=40)
        best = 0.0
        for v in samples:
            best = max(best, abs(v))
        assert naive_scale_factor(cyc(samples)) == best

    def test_subject_single_spike(self):
        w = np.full(CALIBRATION_SAMPLES, 0.1)
        w[137] = 5.0
        assert subject_scale_factor(cal(w)) == 5.0

    def test_subject_constant_window(self):
        assert subject_scale_factor(cal(np.full(CALIBRATION_SAMPLES, 2.0))) == 2.0

    def test_subject_all_zero(self):
        with pytest.raises(AllZeroWindow):
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
        with pytest.raises(NonPositiveScale):
            normalize_cycle(cyc([1.0, 2.0]), "pad", 0.0)

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
        with pytest.raises(CycleLongerThanTarget):
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
        with pytest.raises(TooShortCycle):
            cyc([1.0])


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

    def test_headroom_names_the_cycle(self):
        with pytest.raises(ValidationError, match=r"^cycle of subject 'a' at t_start_ms "
                           r"800 has normalized peak 11 above headroom bound 10.0$"):
            normalize_cycle(cyc([0.0, 11.0, 1.0], sid="a", t0=800), "pad", None)
