import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsqi.errors import InvalidScenario, ShapeMismatch
from cvsqi.forward import (MOTION_SHAPES, N_CHANNELS, SAMPLE_MS, LeadformVector,
                           MotionEvent, SynthScenario, _event_profile,
                           _r_peak_times, cardiac_template, synthesize_stream)
from cvsqi.labels import QualityLabel


def whole_array_synthesis(scenario):
    """Reference: synthesis that mixes every motion event into all n rows.

    Returns (cvs, g, g_motion, r_peaks, labels) with the same rng draws and
    the same operation order as synthesize_stream.
    """
    rng = np.random.default_rng(scenario.subject_seed)
    n = scenario.duration_ms // SAMPLE_MS
    t_ms = np.arange(n, dtype=np.int64) * SAMPLE_MS
    baseline = scenario.baseline_g * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, N_CHANNELS))
    a_blood = rng.normal(size=N_CHANNELS)
    a_blood /= np.linalg.norm(a_blood)
    a_air = rng.normal(size=N_CHANNELS)
    a_air /= np.linalg.norm(a_air)
    w = a_blood - (a_blood @ a_air) * a_air
    w = w / (w @ a_blood)

    r_peaks = _r_peak_times(scenario)
    rrs = scenario.rr_intervals_ms
    bounds = np.concatenate([r_peaks, [r_peaks[-1] + rrs[(len(r_peaks) - 1) % len(rrs)]]])
    seg = np.clip(np.searchsorted(bounds, t_ms, side="right") - 1, 0, len(bounds) - 2)
    phase = (t_ms - bounds[seg]) / (bounds[seg + 1] - bounds[seg])

    g_blood = (scenario.gain * cardiac_template(phase))[:, None] * a_blood[None, :]
    resp = 0.5 * scenario.gain * np.sin(2.0 * np.pi * t_ms / scenario.respiration_period_ms)
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
    x_motion = g_motion @ w
    lo, hi = scenario.ambiguous_band
    labels = []
    for a, b in zip(r_peaks[:-1], r_peaks[1:]):
        m = float(np.max(np.abs(x_motion[a // SAMPLE_MS:b // SAMPLE_MS + 1]))) / scenario.gain
        labels.append(QualityLabel.MOTION if m > hi
                      else QualityLabel.AMBIGUOUS if m >= lo else QualityLabel.NORMAL)
    return cvs, g, g_motion, r_peaks, labels


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
    def test_row_sliced_motion_matches_whole_array_mixing(self, scenario):
        cvs, g, g_motion, r_peaks, labels = whole_array_synthesis(scenario)
        try:
            s = synthesize_stream(scenario)
        except InvalidScenario:     # rare: stacked events pushed g below zero
            assert np.any(g <= 0)
            return
        assert np.array_equal(s.cvs, cvs)
        assert np.array_equal(s.g, g)
        assert np.array_equal(s.g_motion, g_motion)
        assert np.array_equal(s.r_peaks, r_peaks)
        assert s.cycle_labels == labels


class TestLeadformVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            LeadformVector(np.ones(N_CHANNELS - 1))

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidScenario):
            LeadformVector(np.zeros(N_CHANNELS))


class TestExtractCvs:
    def test_unit_vector_projects_coordinate(self, seed):
        rng = np.random.default_rng(seed)
        gdot = rng.normal(size=N_CHANNELS)
        k = int(rng.integers(0, N_CHANNELS))
        w = np.zeros(N_CHANNELS)
        w[k] = 1.0
        assert LeadformVector(w).project(gdot) == gdot[k]

    def test_zero_input(self):
        w = LeadformVector(np.ones(N_CHANNELS))
        assert w.project(np.zeros(N_CHANNELS)) == 0.0

    def test_respiration_suppressed_by_orthogonal_leadform(self, seed):
        # build w orthogonal to the air direction via one Gram-Schmidt step
        rng = np.random.default_rng(seed)
        a_air = rng.normal(size=N_CHANNELS)
        a_air /= np.linalg.norm(a_air)
        a_blood = rng.normal(size=N_CHANNELS)
        w = LeadformVector(a_blood - (a_blood @ a_air) * a_air)
        g_air = 3.7 * a_air
        g_blood = 0.9 * a_blood
        total = w.project(g_air + g_blood)
        blood_only = w.project(g_blood)
        assert abs(w.project(g_air)) < 1e-10
        assert total == pytest.approx(blood_only, rel=1e-10)

    def test_dimension_mismatch(self):
        w = LeadformVector(np.ones(N_CHANNELS))
        with pytest.raises(ShapeMismatch):
            w.project(np.zeros(5))
        with pytest.raises(ShapeMismatch):
            w.project(np.zeros((3, N_CHANNELS + 1)))


@pytest.fixture(scope="module")
def motion_stream():
    events = (MotionEvent(2_000, 1_500, 2.0, "step"), MotionEvent(2_500, 3_005, 0.8, "sway"))
    return synthesize_stream(SynthScenario(subject_seed=12, duration_ms=10_000,
                                           rr_intervals_ms=(780, 820), motion_events=events))


class TestSynthesizeStream:
    def test_motion_free_labels_and_component(self, quiet_stream):
        assert all(lab is QualityLabel.NORMAL for lab in quiet_stream.cycle_labels)
        assert np.all(quiet_stream.g_motion == 0.0)

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
        assert np.array_equal(s1.g, s2.g)
        assert s1.cycle_labels == s2.cycle_labels

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidScenario):
            SynthScenario(subject_seed=0, duration_ms=0, rr_intervals_ms=(800,))


class TestStreamInvariants:
    def test_additive_decomposition_exact(self, motion_stream):
        s = motion_stream
        assert np.any(s.g_motion != 0.0)
        assert np.array_equal(
            s.g, s.baseline[None, :] + s.g_air + s.g_blood + s.g_motion)
        w = s.leadform.w
        parts = s.g_air @ w + s.g_blood @ w + s.g_motion @ w
        assert np.allclose(s.cvs, parts, rtol=1e-10, atol=1e-10)

    def test_cvs_linearity(self, seed):
        rng = np.random.default_rng(seed)
        w = LeadformVector(rng.normal(size=N_CHANNELS))
        u = rng.normal(size=N_CHANNELS)
        v = rng.normal(size=N_CHANNELS)
        a, b = 2.5, -0.75
        lhs = w.project(a * u + b * v)
        rhs = a * w.project(u) + b * w.project(v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        rows = w.project(np.stack([u, v, a * u + b * v]))
        assert np.allclose(rows, [w.project(u), w.project(v), lhs], rtol=1e-12, atol=1e-12)

    def test_leadform_cancels_respiration(self, seed):
        scenario = SynthScenario(subject_seed=seed, duration_ms=8_000,
                                 rr_intervals_ms=(800,), noise_std=0.0)
        s = synthesize_stream(scenario)
        assert np.max(np.abs(s.g_air)) > 0.1
        assert np.max(np.abs(s.g_air @ s.leadform.w)) < 1e-10

    def test_motion_free_cvs_periodic(self, quiet_stream):
        s = quiet_stream
        period = 80   # samples per 800 ms cycle
        first = s.cvs[:period]
        bound = 5.0 * s.scenario.noise_std * s.scenario.gain
        for k in range(1, 10):
            seg = s.cvs[k * period:(k + 1) * period]
            assert np.max(np.abs(seg - first)) < bound
