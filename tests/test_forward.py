import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsqi.errors import InvalidField
from cvsqi.forward import (MOTION_SHAPES, SAMPLE_MS, MotionEvent,
                           SynthScenario, _beat_times, _event_profile,
                           cardiac_template, synthesize_stream)
from cvsqi.labels import QualityLabel


N_CHANNELS = 208   # retained transconductance channels of a 16-electrode belt
BASELINE_G = 50.0          # the reference's mean channel baseline; the CVS subtracts it
RESPIRATION_MS = 4000.0    # the reference's breathing period; the leadform cancels it


def whole_array_synthesis(scenario):
    """Reference: synthesis of the whole (n, 208) transconductance g, each
    motion event mixed into all n rows, projected onto the leadform at the end.

    The reference for all of synthesize_stream except the noise: its channel
    noise projects to the same distribution as synthesize_stream's n scalars,
    but from other draws.  Returns the baseline, the channel components, g,
    the leadform w, cvs, the motion CVS, the R-peaks, each cycle's motion peak
    over gain, and the labels.
    """
    rng = np.random.default_rng(scenario.subject_seed)
    n = scenario.duration_ms // SAMPLE_MS
    t_ms = np.arange(n, dtype=np.int64) * SAMPLE_MS
    baseline = BASELINE_G * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, N_CHANNELS))
    a_blood = rng.normal(size=N_CHANNELS)
    a_blood /= np.linalg.norm(a_blood)
    a_air = rng.normal(size=N_CHANNELS)
    a_air /= np.linalg.norm(a_air)
    w = a_blood - (a_blood @ a_air) * a_air
    w = w / (w @ a_blood)

    beats = _beat_times(scenario)
    r_peaks = beats[:-1]
    seg = np.searchsorted(beats, t_ms, side="right") - 1
    phase = (t_ms - beats[seg]) / (beats[seg + 1] - beats[seg])

    g_blood = (scenario.gain * cardiac_template(phase))[:, None] * a_blood[None, :]
    resp = 0.5 * scenario.gain * np.sin(2.0 * np.pi * t_ms / RESPIRATION_MS)
    g_air = resp[:, None] * a_air[None, :]
    if scenario.noise_std > 0:
        chan_std = scenario.noise_std * scenario.gain / np.linalg.norm(w)
        g_air = g_air + rng.normal(scale=chan_std, size=(n, N_CHANNELS))

    g_motion = np.zeros((n, N_CHANNELS))
    for ev in scenario.motion_events:
        pu = 0.0
        while abs(pu) < 0.05:
            u = rng.normal(size=N_CHANNELS)
            u /= np.linalg.norm(u)
            pu = w @ u
        prof = _event_profile(ev, t_ms, cardiac_phase=phase)
        g_motion += (scenario.gain * ev.amplitude * prof)[:, None] * (u / pu)[None, :]

    g = baseline[None, :] + g_air + g_blood + g_motion
    cvs = (g - baseline[None, :]) @ w
    cvs_motion = g_motion @ w
    lo, hi = scenario.ambiguous_band
    peaks, labels = [], []
    for a, b in zip(r_peaks[:-1], r_peaks[1:]):
        m = float(np.max(np.abs(cvs_motion[a // SAMPLE_MS:b // SAMPLE_MS + 1]))) / scenario.gain
        peaks.append(m)
        labels.append(QualityLabel.MOTION if m > hi
                      else QualityLabel.AMBIGUOUS if m >= lo else QualityLabel.NORMAL)
    return types.SimpleNamespace(baseline=baseline, g_air=g_air, g_blood=g_blood,
                                 g_motion=g_motion, g=g, w=w, cvs=cvs,
                                 cvs_motion=cvs_motion, r_peaks=r_peaks,
                                 motion_peaks=peaks, labels=labels)


# synthesize_stream sums the components in CVS space, the reference sums the
# channels of g and projects them onto w, so the two round differently: cvs
# agrees within this fraction of its peak, and labels agree except for a
# motion peak this close to a band edge.
ORACLE_RTOL = 1e-12


def assert_matches_reference(scenario):
    """The oracle comparison of synthesize_stream with whole_array_synthesis:
    R-peaks and labels as given, cvs and cvs_motion on a noise-free copy,
    since the two draw their noise differently."""
    s, ref = synthesize_stream(scenario), whole_array_synthesis(scenario)
    assert np.array_equal(s.r_peaks, ref.r_peaks)
    edges = scenario.ambiguous_band
    for got, want, m in zip(s.cycle_labels, ref.labels, ref.motion_peaks, strict=True):
        assert got is want or min(abs(m - e) for e in edges) <= ORACLE_RTOL
    quiet = dataclasses.replace(scenario, noise_std=0.0)
    s, ref = synthesize_stream(quiet), whole_array_synthesis(quiet)
    tol = ORACLE_RTOL * np.max(np.abs(ref.cvs))
    assert np.max(np.abs(s.cvs - ref.cvs)) <= tol
    assert np.max(np.abs(s.cvs_motion - ref.cvs_motion)) <= tol


@st.composite
def scenarios(draw):
    duration = SAMPLE_MS * draw(st.integers(100, 1200))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, duration - 1))              # any ms, on the grid or off
        if draw(st.booleans()):
            length = duration - start                            # ends at duration_ms
        else:
            length = draw(st.integers(1, duration - start))
        amplitude = draw(st.sampled_from([0.0, 0.4, 1.0, 2.5]) | st.floats(0.0, 3.0))
        events.append(MotionEvent(start, length, amplitude, draw(st.sampled_from(MOTION_SHAPES))))
    return SynthScenario(
        subject_seed=draw(st.integers(0, 2**32 - 1)), duration_ms=duration,
        rr_intervals_ms=tuple(SAMPLE_MS * r for r in draw(
            st.lists(st.integers(30, 200), min_size=1, max_size=3))),
        motion_events=tuple(events), noise_std=draw(st.sampled_from([0.0, 0.02])))


# all four shapes, overlapping, off grid, ending at duration_ms, zero amplitude
_EDGE_EVENTS = (MotionEvent(1005, 3000, 2.0, "step"), MotionEvent(2000, 2501, 0.0, "ramp"),
                MotionEvent(3333, 1667, 1.2, "burst"), MotionEvent(4207, 793, 0.7, "sway"))


class TestSynthesisOracle:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    @example(SynthScenario(subject_seed=4, duration_ms=5_000, rr_intervals_ms=(700, 830),
                           motion_events=_EDGE_EVENTS))
    @example(SynthScenario(subject_seed=9, duration_ms=1_000, rr_intervals_ms=(300,),
                           motion_events=(MotionEvent(999, 1, 3.0, "sway"),
                                          MotionEvent(0, 1_000, 0.0, "burst"))))
    # a step 5000x the cardiogenic peak: some channels of g are negative
    @example(SynthScenario(subject_seed=8, duration_ms=8_000, rr_intervals_ms=(800,),
                           motion_events=(MotionEvent(5_000, 400, 5000.0, "step"),)))
    def test_row_sliced_motion_matches_whole_array_mixing(self, scenario):
        assert_matches_reference(scenario)


class TestBeatSchedule:
    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    @example(SynthScenario(subject_seed=0, duration_ms=10, rr_intervals_ms=(300,)))
    @example(SynthScenario(subject_seed=0, duration_ms=2_310, rr_intervals_ms=(300, 2000)))
    def test_r_peaks_follow_the_cycled_rr_list(self, scenario):
        r_peaks = synthesize_stream(scenario).r_peaks
        rrs = scenario.rr_intervals_ms
        cycled = [rrs[i % len(rrs)] for i in range(len(r_peaks))]
        assert r_peaks[0] == 0
        assert np.diff(r_peaks).tolist() == cycled[:-1]
        # the last R-peak is on the recording, the next one would be past it
        assert r_peaks[-1] <= scenario.duration_ms - SAMPLE_MS < r_peaks[-1] + cycled[-1]


@pytest.fixture(scope="module")
def motion_stream():
    events = (MotionEvent(2_000, 1_500, 2.0, "step"), MotionEvent(2_500, 3_005, 0.8, "sway"))
    return synthesize_stream(SynthScenario(subject_seed=12, duration_ms=10_000,
                                           rr_intervals_ms=(780, 820), motion_events=events))


class TestSynthesizeStream:
    def test_motion_free_labels_and_component(self, quiet_stream):
        assert all(lab is QualityLabel.NORMAL for lab in quiet_stream.cycle_labels)
        assert np.all(quiet_stream.cvs_motion == 0.0)

    def test_large_step_marks_covered_cycles(self):
        # a step 10x the cardiogenic peak spanning cycles 3..5
        ev = MotionEvent(start_ms=2400, duration_ms=2400, amplitude=10.0)
        scenario = SynthScenario(subject_seed=3, duration_ms=10_000,
                                 rr_intervals_ms=(800,), motion_events=(ev,))
        stream = synthesize_stream(scenario)
        peaks = stream.r_peaks
        for i, (a, b) in enumerate(zip(peaks[:-1], peaks[1:])):
            # cycles include both endpoint samples; the event covers [start, end)
            overlaps = a < ev.end_ms and b >= ev.start_ms
            if overlaps:
                assert stream.cycle_labels[i] is QualityLabel.MOTION
            else:
                assert stream.cycle_labels[i] is QualityLabel.NORMAL

    def test_deterministic_under_subject_seed(self):
        scenario = SynthScenario(subject_seed=5, duration_ms=8_000,
                                 rr_intervals_ms=(750, 760))
        s1 = synthesize_stream(scenario)
        s2 = synthesize_stream(scenario)
        assert np.array_equal(s1.cvs, s2.cvs)
        assert np.array_equal(s1.cvs_motion, s2.cvs_motion)
        assert np.array_equal(s1.r_peaks, s2.r_peaks)
        assert s1.cycle_labels == s2.cycle_labels

    @pytest.mark.parametrize("duration_ms", [10, 800, 810])
    def test_one_r_peak_labels_no_cycle(self, duration_ms):
        # 810 ms is the first duration that holds the second R-peak's sample
        scenario = SynthScenario(subject_seed=1, duration_ms=duration_ms,
                                 rr_intervals_ms=(800,),
                                 motion_events=(MotionEvent(0, duration_ms, 2.0, "step"),))
        s = synthesize_stream(scenario)
        assert len(s.r_peaks) == (2 if duration_ms > 800 else 1)
        assert s.cycle_labels == [QualityLabel.MOTION] * (len(s.r_peaks) - 1)
        assert_matches_reference(scenario)

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidField):
            SynthScenario(subject_seed=0, duration_ms=0, rr_intervals_ms=(800,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field,build", [
        ("gain", lambda v: SynthScenario(0, 1_000, (800,), gain=v)),
        ("noise_std", lambda v: SynthScenario(0, 1_000, (800,), noise_std=v)),
        ("ambiguous_band", lambda v: SynthScenario(0, 1_000, (800,), ambiguous_band=(v, 1.5))),
        ("ambiguous_band", lambda v: SynthScenario(0, 1_000, (800,), ambiguous_band=(0.5, v))),
        ("amplitude", lambda v: MotionEvent(0, 100, v)),
    ], ids=["gain", "noise_std", "band-low", "band-high", "amplitude"])
    def test_non_finite_value_rejected_naming_its_field(self, field, build, value):
        with pytest.raises(InvalidField, match=f"^{field} must "):
            build(value)

    @pytest.mark.parametrize("value", [math.nan, 100.5, 1000.0, True],
                             ids=["nan", "fraction", "integral-float", "bool"])
    @pytest.mark.parametrize("field,build", [
        ("start_ms", lambda v: MotionEvent(v, 100, 1.0)),
        ("duration_ms", lambda v: MotionEvent(0, v, 1.0)),
        ("duration_ms", lambda v: SynthScenario(0, v, (800,))),
        ("subject_seed", lambda v: SynthScenario(v, 1_000, (800,))),
        (r"rr_intervals_ms\[1\]", lambda v: SynthScenario(0, 1_000, (800, v))),
    ], ids=["start_ms", "event-duration_ms", "duration_ms", "subject_seed", "rr"])
    def test_integer_field_rejects_float_nan_and_bool(self, field, build, value):
        # before synthesis, where a float index or seed raised a bare TypeError
        with pytest.raises(InvalidField, match=f"^{field} must be an integer, got "):
            build(value)

    def test_numpy_integer_fields_accepted(self):
        scenario = SynthScenario(np.int64(3), np.int64(2_000), (np.int64(800),),
                                 motion_events=(MotionEvent(np.int64(0), np.int32(100), 1.0),))
        assert scenario.rr_intervals_ms == (800,)
        assert synthesize_stream(scenario).n_samples == 200


class TestStreamInvariants:
    def test_additive_decomposition_exact(self, motion_stream):
        s = motion_stream
        quiet = synthesize_stream(dataclasses.replace(s.scenario, noise_std=0.0))
        ref = whole_array_synthesis(quiet.scenario)
        assert np.any(s.cvs_motion != 0.0)
        assert np.array_equal(s.cvs_motion, quiet.cvs_motion)   # the noise is added apart
        assert np.array_equal(
            ref.g, ref.baseline[None, :] + ref.g_air + ref.g_blood + ref.g_motion)
        parts = ref.g_air @ ref.w + ref.g_blood @ ref.w + quiet.cvs_motion
        assert np.allclose(quiet.cvs, parts, rtol=1e-10, atol=1e-10)
        assert np.allclose(quiet.cvs_motion, ref.g_motion @ ref.w, rtol=1e-10, atol=1e-10)
        assert_matches_reference(s.scenario)

    def test_noise_is_white_at_the_scenario_std(self, seed):
        scenario = SynthScenario(subject_seed=seed, duration_ms=110_000,
                                 rr_intervals_ms=(780, 820), noise_std=0.03, gain=1.7,
                                 motion_events=(MotionEvent(30_000, 2_000, 2.0, "sway"),))
        noise = (synthesize_stream(scenario).cvs
                 - synthesize_stream(dataclasses.replace(scenario, noise_std=0.0)).cvs)
        std = scenario.noise_std * scenario.gain
        assert abs(np.std(noise) / std - 1.0) < 0.05
        d = noise - noise.mean()
        assert abs(d[1:] @ d[:-1] / (d @ d)) < 0.05

    def test_leadform_cancels_respiration(self, seed):
        scenario = SynthScenario(subject_seed=seed, duration_ms=8_000,
                                 rr_intervals_ms=(800,), noise_std=0.0)
        s = synthesize_stream(scenario)
        ref = whole_array_synthesis(scenario)
        assert np.max(np.abs(ref.g_air)) > 0.1
        assert np.max(np.abs(ref.g_air @ ref.w)) < 1e-10
        # noise- and motion-free, the CVS is the cardiogenic waveform alone
        phase = (s.t_ms % 800) / 800
        assert np.allclose(s.cvs, scenario.gain * cardiac_template(phase),
                           rtol=0, atol=1e-10)

    def test_motion_free_cvs_periodic(self, quiet_stream):
        s = quiet_stream
        period = 80   # samples per 800 ms cycle
        first = s.cvs[:period]
        bound = 5.0 * s.scenario.noise_std * s.scenario.gain
        for k in range(1, 10):
            seg = s.cvs[k * period:(k + 1) * period]
            assert np.max(np.abs(seg - first)) < bound
