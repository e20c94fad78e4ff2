"""Active time, velocities, complexity weighting, retention scores, decay fits."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vibecheck.codemetrics import metrics as metrics_module
from vibecheck.codemetrics.halstead import HalsteadCounts
from vibecheck.codemetrics.lexer import line_col
from vibecheck.codemetrics.metrics import CodeMetrics, metrics
from vibecheck.codemetrics.parser import parse
from vibecheck.errors import (
    CalibrationError,
    DegenerateOmegaWarning,
    FitError,
    UndefinedVelocityError,
    ValidationError,
)
from vibecheck.retention import (
    UNCALIBRATED,
    OmegaCalibration,
    SessionEvent,
    SessionLog,
    _lstsq2,
    active_minutes,
    calibrate_omega,
    csr_ratio,
    fit_decay,
    lines_of_code,
    m_csr,
    omega,
    read_pairs,
    read_session_log,
    velocity,
    write_session_log,
)

UNIT = parse("x = a + b\n", name="unit.vcp")          # V = 5 * log2(5)
TARGET = parse("if (a < b) {\n  x = 1\n} else {\n  x = 2\n}\n", name="t.vcp")  # cc 2, V 30

# Frozen fixture values.
V_BUILD_DEMO = 3.8698801581456035     # 5*log2(5) / 3 minutes
V_REC_DEMO = 5.804820237218405        # 5*log2(5) / 2 minutes
NOISY_S0 = 1.0814273968390624
NOISY_LAM = 0.22550588238157024


def _log(phase, times, student="s", unit=UNIT, kinds=None):
    kinds = kinds or ["edit"] * len(times)
    events = tuple(SessionEvent(t=t, kind=k) for t, k in zip(times, kinds))
    return SessionLog(student=student, phase=phase, events=events, final_unit=unit)


# --- active time --------------------------------------------------------------


def test_two_events_within_gap_merge_windows():
    log = _log("ai_build", [0.0, 60.0])
    assert active_minutes(log) == 3.0  # [0, 180] once the windows merge


def test_single_event_counts_one_gap():
    assert active_minutes(_log("ai_build", [0.0])) == 2.0


def test_distant_events_count_separate_windows():
    assert active_minutes(_log("ai_build", [0.0, 1000.0])) == 4.0


def test_no_events_is_zero_minutes():
    assert active_minutes(_log("ai_build", [])) == 0.0


def test_overlapping_windows_never_double_count():
    # Three events whose windows chain into one burst: [0, 240], not 3 * 120.
    assert active_minutes(_log("ai_build", [0.0, 60.0, 120.0])) == 4.0
    # An event exactly at the window edge continues the burst seamlessly.
    assert active_minutes(_log("ai_build", [0.0, 120.0])) == 4.0


def test_custom_idle_gap():
    log = _log("ai_build", [0.0, 1000.0])
    assert active_minutes(log, idle_gap=2000.0) == pytest.approx(3000.0 / 60.0)


def test_idle_gap_must_be_positive():
    with pytest.raises(ValidationError):
        active_minutes(_log("ai_build", [0.0]), idle_gap=0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=30))
def test_active_minutes_bounds(times):
    log = _log("ai_build", sorted(times))
    minutes = active_minutes(log)
    n = len(times)
    span = max(times) - min(times)
    assert minutes >= 2.0 - 1e-9                      # one window at least
    assert minutes <= (span + 120.0) / 60.0 + 1e-9    # no double counting
    assert minutes <= n * 2.0 + 1e-9                  # n disjoint windows at most


def test_event_order_is_validated():
    with pytest.raises(ValidationError):
        active_minutes(_log("ai_build", [60.0, 0.0]))


# --- velocity -----------------------------------------------------------------


def test_velocity_volume_per_minute():
    log = _log("ai_build", [0.0, 60.0])  # 3 minutes
    expected = metrics(UNIT).halstead.volume_v / 3.0
    assert velocity(log) == pytest.approx(expected, abs=1e-12)


def test_velocity_loc_unit():
    unit = parse("x = 1\n\n// comment only\ny = 2\n", name="two.vcp")
    log = _log("ai_build", [0.0, 60.0], unit=unit)
    assert lines_of_code(unit) == 2
    assert velocity(log, unit="loc") == pytest.approx(2.0 / 3.0)


def test_lines_of_code_ends_a_line_at_newline_only():
    # U+2028 in a comment and U+0085 in a string end no line for the lexer.
    text = 'x = 1 // a\u2028b\ny = "p\x85q"\n'
    unit = parse(text, name="seps.vcp")
    assert line_col(text, len(text) - 1) == (2, 10)
    assert lines_of_code(unit) == 2
    log = _log("ai_build", [0.0, 60.0], unit=unit)
    assert velocity(log, unit="loc") == pytest.approx(2.0 / 3.0)


def test_velocity_without_events_is_undefined():
    with pytest.raises(UndefinedVelocityError):
        velocity(_log("ai_build", []))


def test_velocity_rejects_unknown_unit():
    with pytest.raises(ValidationError):
        velocity(_log("ai_build", [0.0]), unit="tokens")


# --- complexity weighting -----------------------------------------------------


def _fake_metrics(cc, volume):
    counts = HalsteadCounts(n1=1, n2=1, N1=1, N2=1, volume_v=volume)
    return CodeMetrics(cc=cc, halstead=counts, h_c=0.0)


def test_omega_is_alpha_lncc_plus_beta_volume():
    cal = OmegaCalibration(alpha=0.5, beta=0.001, baseline_source="test")
    assert omega(_fake_metrics(1, 1000.0), cal) == pytest.approx(1.0, abs=1e-12)
    assert omega(_fake_metrics(8, 1000.0), cal) == pytest.approx(
        0.5 * math.log(8) + 1.0, abs=1e-12
    )


def test_omega_exactly_zero_warns():
    with pytest.warns(DegenerateOmegaWarning):
        value = omega(_fake_metrics(1, 500.0), UNCALIBRATED)
    assert value == 0.0


def test_omega_needs_halstead():
    bare = CodeMetrics(cc=2, halstead=None, h_c=1.0)
    with pytest.raises(ValidationError):
        omega(bare, UNCALIBRATED)


def test_uncalibrated_reduces_to_ln_cc():
    assert omega(metrics(TARGET), UNCALIBRATED) == pytest.approx(math.log(2), abs=1e-12)
    assert UNCALIBRATED.baseline_source == "uncalibrated"


def test_csr_ratio_kernel():
    assert csr_ratio(2.0, 5.0, 1.25) == pytest.approx(0.5, abs=1e-12)
    assert csr_ratio(0.0, 5.0, 1.25) == 0.0


def test_csr_ratio_validation():
    with pytest.raises(ValidationError):
        csr_ratio(1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        csr_ratio(-0.1, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_csr_ratio_is_scale_invariant(v_rec, v_build, om, scale):
    # Measuring both velocities in different units cannot change the score.
    base = csr_ratio(v_rec, v_build, om)
    scaled = csr_ratio(v_rec * scale, v_build * scale, om)
    assert scaled == pytest.approx(base, rel=1e-9)


# --- calibration --------------------------------------------------------------


def _fixture_pairs(fixtures):
    return read_pairs(fixtures / "calibration" / "pairs.jsonl")


def test_expert_calibration_recovers_weights(fixtures):
    pairs = _fixture_pairs(fixtures)
    cal, mean = calibrate_omega(pairs)
    assert cal.alpha == pytest.approx(0.6, abs=1e-6)
    assert cal.beta == pytest.approx(0.002, abs=1e-6)
    assert not cal.degenerate
    assert mean == pytest.approx(1.0, abs=1e-9)


# Three experts whose build and refactor units differ, so the loc and volume
# ratios differ; three pairs over two parameters leave the fit a residual.
_MIXED_PAIRS = [
    (_log("ai_build", [0.0, 60.0], student="e1", unit=UNIT),
     _log("cold_refactor", [86400.0, 86520.0], student="e1", unit=TARGET)),
    (_log("ai_build", [0.0, 200.0], student="e2", unit=TARGET),
     _log("cold_refactor", [86400.0], student="e2", unit=UNIT)),
    (_log("ai_build", [0.0], student="e3", unit=TARGET),
     _log("cold_refactor", [86400.0, 86600.0], student="e3",
          unit=parse("while (a < b) {\n  a = a + 1\n}\n", name="w.vcp"))),
]


@pytest.mark.parametrize("unit", ["volume", "loc"])
def test_calibration_mean_is_the_mean_retention_score(fixtures, unit):
    for pairs in (_fixture_pairs(fixtures), _MIXED_PAIRS):
        cal, mean = calibrate_omega(pairs, velocity_unit=unit)
        scores = [m_csr(b, r, cal, velocity_unit=unit).m_csr for b, r in pairs]
        assert mean == math.fsum(scores) / len(scores)


def test_calibration_round_trips_through_dict(fixtures):
    cal, _ = calibrate_omega(_fixture_pairs(fixtures), baseline_source="expert-v2")
    assert OmegaCalibration.from_dict(cal.to_dict()) == cal
    assert cal.baseline_source == "expert-v2"


def test_stored_calibration_matches_refit(fixtures):
    stored = OmegaCalibration.from_dict(
        json.loads((fixtures / "calibration" / "calibration.json").read_text())
    )
    refit, _ = calibrate_omega(_fixture_pairs(fixtures), baseline_source=stored.baseline_source)
    assert refit.alpha == pytest.approx(stored.alpha, abs=1e-9)
    assert refit.beta == pytest.approx(stored.beta, abs=1e-9)


def test_single_complexity_class_gives_degenerate_min_norm():
    build = _log("ai_build", [0.0, 60.0], unit=UNIT)
    refactor = _log("cold_refactor", [86400.0], unit=TARGET)
    pairs = [(build, refactor), (build, refactor)]
    cal, _ = calibrate_omega(pairs)
    assert cal.degenerate
    # The minimum-norm solution still satisfies the (consistent) system.
    ratio = velocity(refactor) / velocity(build)
    fitted = ratio * (cal.alpha * math.log(2) + cal.beta * 30.0)
    assert fitted == pytest.approx(1.0, abs=1e-9)


def test_conflicting_single_class_is_a_calibration_error():
    build = _log("ai_build", [0.0, 60.0], unit=UNIT)
    fast = _log("cold_refactor", [86400.0], unit=TARGET)              # 2 min
    slow = _log("cold_refactor", [86400.0, 86400.0 + 60.0], unit=TARGET)  # 3 min
    with pytest.raises(CalibrationError, match="collinear"):
        calibrate_omega([(build, fast), (build, slow)])


def test_calibration_needs_two_pairs():
    build = _log("ai_build", [0.0], unit=UNIT)
    refactor = _log("cold_refactor", [86400.0], unit=TARGET)
    with pytest.raises(ValidationError):
        calibrate_omega([(build, refactor)])


def test_calibration_checks_phases():
    build = _log("ai_build", [0.0], unit=UNIT)
    refactor = _log("cold_refactor", [86400.0], unit=TARGET)
    with pytest.raises(ValidationError):
        calibrate_omega([(refactor, build), (build, refactor)])


@pytest.mark.parametrize(
    "build_times, refactor_times, message",
    [((), (86400.0,), "both sessions need at least one event"),
     ((0.0, 60.0), (30.0,), "refactor session starts before the build session ends")],
)
def test_calibration_checks_each_pair_before_any_velocity(build_times, refactor_times, message):
    build = _log("ai_build", build_times, unit=UNIT)
    refactor = _log("cold_refactor", refactor_times, unit=TARGET)
    with pytest.raises(ValidationError, match=message):
        calibrate_omega([(build, refactor), (build, refactor)])
    with pytest.raises(ValidationError, match=message):
        m_csr(build, refactor, UNCALIBRATED)


# --- retention score ----------------------------------------------------------


def test_m_csr_demo_pair(fixtures):
    build = read_session_log(fixtures / "session" / "build.log")
    refactor = read_session_log(fixtures / "session" / "refactor.log")
    cal = OmegaCalibration(alpha=0.5, beta=0.001, baseline_source="test")
    result = m_csr(build, refactor, cal)
    assert result.student == "demo"
    assert result.v_build == pytest.approx(V_BUILD_DEMO, abs=1e-12)
    assert result.v_rec == pytest.approx(V_REC_DEMO, abs=1e-12)
    # Both final units are the same straight-line program: omega = beta * V.
    expected_omega = 0.001 * metrics(build.final_unit).halstead.volume_v
    assert result.omega == pytest.approx(expected_omega, abs=1e-12)
    assert result.omega_build == result.omega_refactor == result.omega
    assert result.m_csr == pytest.approx(1.5 * expected_omega, abs=1e-12)
    assert result.delta_t_hours == pytest.approx((86400.0 - 60.0) / 3600.0, abs=1e-12)
    assert result.calibration_source == "test"


def test_m_csr_weighs_the_refactor_target():
    build = _log("ai_build", [0.0, 60.0], unit=UNIT)
    refactor = _log("cold_refactor", [86400.0], unit=TARGET)
    cal = OmegaCalibration(alpha=1.0, beta=0.0, baseline_source="test")
    with pytest.warns(DegenerateOmegaWarning):  # build-side weight hits 0
        result = m_csr(build, refactor, cal)
    assert result.omega_refactor == pytest.approx(math.log(2), abs=1e-12)
    assert result.omega_build == pytest.approx(0.0, abs=1e-12)  # cc 1 target
    assert result.omega == result.omega_refactor
    ratio = result.v_rec / result.v_build
    assert result.m_csr == pytest.approx(ratio * math.log(2), abs=1e-12)


def test_m_csr_builds_one_graph_per_unit(monkeypatch):
    # Velocity reads only the Halstead volume; omega needs the build's and the
    # refactor's cc, so a score builds two control-flow graphs.
    built = []
    build_cfg = metrics_module.build_cfg
    monkeypatch.setattr(
        metrics_module, "build_cfg", lambda unit: built.append(unit) or build_cfg(unit)
    )
    build = _log("ai_build", [0.0, 60.0], unit=TARGET)
    refactor = _log("cold_refactor", [86400.0], unit=TARGET)
    m_csr(build, refactor, UNCALIBRATED)
    assert len(built) == 2


def test_m_csr_rejects_refactor_before_build():
    build = _log("ai_build", [0.0, 60.0], unit=UNIT)
    early = _log("cold_refactor", [30.0], unit=TARGET)
    with pytest.raises(ValidationError):
        m_csr(build, early, UNCALIBRATED)


def test_m_csr_rejects_mismatched_students():
    build = _log("ai_build", [0.0], student="a")
    refactor = _log("cold_refactor", [86400.0], student="b", unit=TARGET)
    with pytest.raises(ValidationError):
        m_csr(build, refactor, UNCALIBRATED)


def test_m_csr_rejects_swapped_phases():
    build = _log("ai_build", [0.0])
    refactor = _log("cold_refactor", [86400.0], unit=TARGET)
    with pytest.raises(ValidationError):
        m_csr(refactor, build, UNCALIBRATED)


# --- decay fits ---------------------------------------------------------------


def test_noiseless_decay_is_recovered_exactly():
    s0, lam = 2.0, 0.3
    obs = [(float(t), s0 * math.exp(-lam * t)) for t in range(8)]
    fit = fit_decay(obs)
    assert fit.s0 == pytest.approx(s0, abs=1e-12)
    assert fit.lam == pytest.approx(lam, abs=1e-12)
    assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)
    assert (fit.n_used, fit.n_excluded) == (8, 0)


def test_a_decay_fit_draws_its_own_curve():
    fit = fit_decay([(0.0, 2.0), (1.0, 1.1), (3.0, 0.35)])
    for t in (0.0, 0.5, 3.0, 40.0):
        assert fit.curve(t) == fit.s0 * math.exp(-fit.lam * t)
    assert fit.curve(0.0) == fit.s0


def test_nonpositive_scores_are_excluded_and_counted():
    obs = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.25), (3.0, 0.0), (4.0, -0.1)]
    fit = fit_decay(obs)
    assert (fit.n_used, fit.n_excluded) == (3, 2)
    assert fit.lam == pytest.approx(math.log(2), abs=1e-12)


def test_decay_fit_needs_two_usable_points():
    with pytest.raises(FitError):
        fit_decay([(0.0, 1.0), (1.0, 0.0)])


def test_decay_fit_needs_two_distinct_times():
    with pytest.raises(FitError):
        fit_decay([(2.0, 1.0), (2.0, 0.5)])


def test_noisy_fixture_fit(fixtures):
    import csv

    with (fixtures / "decay" / "noisy_decay.csv").open() as fh:
        obs = [(float(r["t"]), float(r["s"])) for r in csv.DictReader(fh)]
    fit = fit_decay(obs)
    assert fit.s0 == pytest.approx(NOISY_S0, abs=1e-12)
    assert fit.lam == pytest.approx(NOISY_LAM, abs=1e-12)
    assert abs(fit.lam - 0.2) < 0.05  # recovers the generating rate
    assert (fit.n_used, fit.n_excluded) == (12, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.01, max_value=2.0),
)
def test_decay_fit_inverts_its_own_model(s0, lam):
    obs = [(float(t), s0 * math.exp(-lam * t)) for t in (0.0, 0.5, 1.5, 4.0, 9.0)]
    fit = fit_decay(obs)
    assert fit.s0 == pytest.approx(s0, rel=1e-9)
    assert fit.lam == pytest.approx(lam, rel=1e-9, abs=1e-12)


# --- two-column least squares -------------------------------------------------

# Three-decimal values: no product of two of them leaves the normal float range.
_VALUES = st.integers(-10**6, 10**6).map(lambda n: n / 1000)


@st.composite
def _designs(draw, scales):
    """Columns ``a``, ``b = k*a + scale*d`` and ``y``; ``scale`` 0 makes them collinear
    (for ``k = 3``, up to the rounding of ``3*a``)."""
    m = draw(st.integers(2, 8))
    a, d, y = (draw(st.lists(_VALUES, min_size=m, max_size=m)) for _ in range(3))
    k, scale = draw(st.integers(-3, 3)), draw(st.sampled_from(scales))
    return a, [k * x + scale * e for x, e in zip(a, d)], y


@settings(max_examples=300, deadline=None)
@given(_designs([1.0, 1e-3, 1e-6]))
def test_lstsq2_matches_numpy_on_full_rank_designs(design):
    # A least-squares solution moves with its data by up to
    # cond / cos(theta) + cond**2 * tan(theta) relative, theta the angle between
    # y and the fit (Golub and Van Loan, Matrix Computations, 5.3); lstsq's own
    # error follows it (off by 3e-9 from exact rational solutions at cond 1e3).  So
    # the solutions agree to 1e-12 times that factor, and the residuals to
    # 1e-12 * cond * |y|.
    a, b, y = design
    matrix = np.column_stack([a, b])
    cond = np.linalg.cond(matrix)
    assume(cond < 1e8)
    expected, _, rank, _ = np.linalg.lstsq(matrix, y, rcond=None)
    c0, c1, helper_rank, residual = _lstsq2(a, b, y)
    assert (helper_rank, rank) == (2, 2)
    fit = np.linalg.norm(matrix @ expected)
    assume(fit > 0)  # y orthogonal to both columns: x = 0 has no relative scale
    y_norm, expected_residual = np.linalg.norm(y), np.linalg.norm(matrix @ expected - y)
    sensitivity = (cond * y_norm + cond**2 * expected_residual) / fit
    assert math.dist((c0, c1), expected) <= 1e-12 * sensitivity * np.linalg.norm(expected)
    assert abs(residual - expected_residual) <= 1e-12 * cond * y_norm


@settings(max_examples=300, deadline=None)
@given(_designs([0.0]), st.booleans(), st.booleans())
def test_lstsq2_matches_numpy_on_collinear_designs(design, swap, zero):
    a, b, y = design
    if zero:
        a = b = [0.0] * len(y)
    if swap:
        a, b = b, a
    matrix = np.column_stack([a, b])
    expected, _, rank, _ = np.linalg.lstsq(matrix, y, rcond=None)
    c0, c1, helper_rank, _ = _lstsq2(a, b, y)
    assert helper_rank == rank < 2
    # The minimum-norm solution has the scale of |y| / |A|.
    scale = np.linalg.norm(y) / np.linalg.norm(matrix) if rank else 0.0
    assert math.dist((c0, c1), expected) <= 1e-12 * scale


# --- session-log files --------------------------------------------------------


def test_session_log_round_trip(tmp_path):
    log = SessionLog(
        student="rt",
        phase="ai_build",
        events=(
            SessionEvent(0.0, "prompt", payload="write a loop"),
            SessionEvent(30.0, "paste"),
            SessionEvent(90.0, "edit"),
        ),
        final_unit=UNIT,
    )
    path = tmp_path / "build.log"
    write_session_log(log, path, "unit.vcp")
    loaded = read_session_log(path)
    assert loaded.student == "rt"
    assert loaded.phase == "ai_build"
    assert [(e.t, e.kind, e.payload) for e in loaded.events] == [
        (0.0, "prompt", "write a loop"),
        (30.0, "paste", None),
        (90.0, "edit", None),
    ]
    assert loaded.final_unit.text == UNIT.text
    assert (tmp_path / "unit.vcp").read_text() == UNIT.text


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_a_payload_holding_a_line_separator_round_trips(tmp_path, separator):
    payload = f"pasted{separator}text"
    log = SessionLog("rt", "ai_build", (SessionEvent(0.0, "paste", payload),), UNIT)
    path = tmp_path / "build.log"
    write_session_log(log, path, "unit.vcp")
    [event] = read_session_log(path).events
    assert event.payload == payload


def test_cold_refactor_rejects_assisted_events(tmp_path):
    with pytest.raises(ValidationError, match="assisted"):
        SessionLog(
            student="s",
            phase="cold_refactor",
            events=(SessionEvent(0.0, "prompt"),),
            final_unit=UNIT,
        )
    # The same purity check fires when reading a file written around validate.
    path = tmp_path / "bad.log"
    path.write_text(
        '{"student": "s", "phase": "cold_refactor"}\n'
        '{"t": 0.0, "kind": "paste"}\n'
        '{"final_unit": "unit.vcp"}\n'
    )
    (tmp_path / "unit.vcp").write_text("x = 1\n")
    with pytest.raises(ValidationError):
        read_session_log(path)


def test_read_session_log_reports_bad_event_line(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text(
        '{"student": "s", "phase": "ai_build"}\n'
        '{"t": "soon", "kind": "edit"}\n'
        '{"final_unit": "unit.vcp"}\n'
    )
    (tmp_path / "unit.vcp").write_text("x = 1\n")
    with pytest.raises(ValidationError, match=":2:"):
        read_session_log(path)


@pytest.mark.parametrize(
    "text",
    ["", '{"student": "s", "phase": "ai_build"}\n', '\n{"final_unit": "unit.vcp"}\n\n'],
    ids=["empty", "header", "trailer"],
)
def test_a_log_too_short_for_a_header_and_a_trailer_is_refused(tmp_path, text):
    path = tmp_path / "short.log"
    path.write_text(text)
    with pytest.raises(ValidationError) as caught:
        read_session_log(path)
    assert str(caught.value) == (
        f"{path}: a session log is a header, then events, then a final_unit trailer"
    )


def test_read_session_log_missing_unit_file(tmp_path):
    path = tmp_path / "orphan.log"
    path.write_text(
        '{"student": "s", "phase": "ai_build"}\n'
        '{"final_unit": "nowhere.vcp"}\n'
    )
    with pytest.raises(ValidationError, match="nowhere.vcp"):
        read_session_log(path)


def test_unknown_event_kind_rejected():
    with pytest.raises(ValidationError):
        _log("ai_build", [0.0], kinds=["compile"])


def test_unknown_phase_rejected():
    with pytest.raises(ValidationError):
        _log("debug_session", [0.0])
