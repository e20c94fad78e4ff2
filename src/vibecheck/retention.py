"""Session velocities, complexity weighting, and skill-retention scoring.

A session log is a time-ordered event stream plus the final source unit the
session produced.  Active time is the union of windows ``[t, t + idle_gap]``
around events (default gap 120 s), so a pause longer than the gap does not
count as work.  Velocity is the final unit's Halstead volume per active
minute (or lines per active minute with the ``loc`` unit).

The retention score for a student is

    m_csr = (v_rec / v_build) * omega(target)

where ``omega = alpha * ln(cc) + beta * volume`` weights the refactor target
by its structural complexity (natural log; ``cc >= 1`` always, and cc = 1
with beta = 0 makes omega exactly 0, which is reported as degenerate).  The
weights come from an expert calibration chosen so that experts who rebuild
unassisted at their assisted pace score 1.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Optional, Sequence, Union

from vibecheck.codemetrics.metrics import CodeMetrics, metrics
from vibecheck.codemetrics.nodes import SourceUnit
from vibecheck.codemetrics.parser import parse_file
from vibecheck.config import VELOCITY_UNITS, RunConfig
from vibecheck.errors import (
    CalibrationError,
    DegenerateOmegaWarning,
    FitError,
    UndefinedVelocityError,
    ValidationError,
)
from vibecheck.io import as_bool, as_finite, as_str, fields, jsonl_lines, read_jsonl, read_record
from vibecheck.record import Record
from vibecheck.reporting import write_jsonl

EVENT_KINDS = frozenset({"edit", "prompt", "paste", "run", "test_pass", "test_fail"})
PHASES = ("ai_build", "cold_refactor")
_ASSISTED_ONLY_KINDS = frozenset({"prompt", "paste"})


class SessionEvent(Record):
    t: float  # seconds on the study clock
    kind: str
    payload: Optional[str] = None


class SessionLog(Record):
    student: str
    phase: str  # "ai_build" | "cold_refactor"
    events: tuple[SessionEvent, ...]
    final_unit: SourceUnit

    def validate(self) -> None:
        if self.phase not in PHASES:
            raise ValidationError(f"unknown phase {self.phase!r}")
        last = None
        for event in self.events:
            if event.kind not in EVENT_KINDS:
                raise ValidationError(f"unknown event kind {event.kind!r}")
            if last is not None and event.t < last:
                raise ValidationError("event timestamps must be non-decreasing")
            last = event.t
            if self.phase == "cold_refactor" and event.kind in _ASSISTED_ONLY_KINDS:
                raise ValidationError(
                    f"cold_refactor session contains assisted event {event.kind!r}"
                )


class OmegaCalibration(Record):
    alpha: float
    beta: float
    baseline_source: str
    degenerate: bool = False

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "OmegaCalibration":
        """Raises ``TypeError`` or ``ValueError`` on a malformed dict."""
        return cls(**fields(data, _CALIBRATION_FIELDS, optional=("degenerate",)))


_CALIBRATION_FIELDS = {
    "alpha": as_finite, "beta": as_finite, "baseline_source": as_str, "degenerate": as_bool,
}


UNCALIBRATED = OmegaCalibration(alpha=1.0, beta=0.0, baseline_source="uncalibrated")


class RetentionResult(Record):
    student: str
    v_build: float
    v_rec: float
    omega: float
    m_csr: float
    delta_t_hours: float
    omega_build: float
    omega_refactor: float
    calibration_source: str


class DecayFit(Record):
    s0: float
    lam: float
    rms_residual: float
    n_used: int
    n_excluded: int

    def curve(self, t: float) -> float:
        """The fitted score at time ``t``: ``s0 * exp(-lam * t)``."""
        return self.s0 * math.exp(-self.lam * t)


# --- time accounting -------------------------------------------------------


def active_minutes(log: SessionLog, idle_gap: float = RunConfig.idle_gap) -> float:
    """Minutes covered by the union of per-event windows ``[t, t + idle_gap]``."""
    if idle_gap <= 0:
        raise ValidationError(f"idle_gap must be positive, got {idle_gap!r}")
    if not log.events:
        return 0.0
    total = 0.0
    window_start = log.events[0].t
    window_end = window_start + idle_gap
    for event in log.events[1:]:
        if event.t <= window_end:
            window_end = event.t + idle_gap
        else:
            total += window_end - window_start
            window_start = event.t
            window_end = event.t + idle_gap
    total += window_end - window_start
    return total / 60.0


def lines_of_code(unit: SourceUnit) -> int:
    """Non-blank, non-comment source lines."""
    count = 0
    for line in unit.text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def velocity(
    log: SessionLog, idle_gap: float = RunConfig.idle_gap, unit: str = RunConfig.velocity_unit
) -> float:
    """Output per active minute: Halstead volume (default) or lines."""
    if unit not in VELOCITY_UNITS:
        raise ValidationError(f"unknown velocity unit {unit!r}")
    minutes = active_minutes(log, idle_gap=idle_gap)
    if minutes <= 0.0:
        raise UndefinedVelocityError(
            f"session for {log.student!r} has no events, so velocity is undefined"
        )
    if unit == "loc":
        return lines_of_code(log.final_unit) / minutes
    return metrics(log.final_unit).halstead.volume_v / minutes


# --- complexity weighting --------------------------------------------------


def omega(m: CodeMetrics, calibration: OmegaCalibration) -> float:
    """Complexity weight ``alpha * ln(cc) + beta * volume_v``."""
    if m.halstead is None:
        raise ValidationError("omega needs Halstead volume; a bare graph has none")
    value = calibration.alpha * math.log(m.cc) + calibration.beta * m.halstead.volume_v
    if value == 0.0:
        warnings.warn(
            "complexity weight is exactly 0 (cc = 1 and no volume term); "
            "retention ratios built on it collapse to 0",
            DegenerateOmegaWarning,
            stacklevel=2,
        )
    return value


def csr_ratio(v_rec: float, v_build: float, omega_value: float) -> float:
    """The pure retention kernel ``(v_rec / v_build) * omega``."""
    if v_build <= 0.0:
        raise ValidationError(f"build velocity must be positive, got {v_build!r}")
    if v_rec < 0.0:
        raise ValidationError(f"recall velocity must be non-negative, got {v_rec!r}")
    return (v_rec / v_build) * omega_value


def calibrate_omega(
    pairs: Sequence[tuple[SessionLog, SessionLog]],
    idle_gap: float = RunConfig.idle_gap,
    baseline_source: str = "expert-baseline",
) -> OmegaCalibration:
    """Least-squares (alpha, beta) making expert retention scores hit 1.

    Minimizes ``sum((r_i * omega_i - 1)^2)`` with ``r_i`` the expert's
    velocity ratio and ``omega_i`` evaluated on the i-th refactor target.
    A rank-deficient but consistent system (e.g. a single complexity class)
    returns the minimum-norm solution flagged ``degenerate``; an
    inconsistent rank-deficient system is a calibration error naming the
    collinear rows.
    """
    if len(pairs) < 2:
        raise ValidationError("calibration needs at least two expert pairs")
    rows = []
    for build, refactor in pairs:
        _check_pair(build, refactor)
        ratio = velocity(refactor, idle_gap=idle_gap) / velocity(build, idle_gap=idle_gap)
        m = metrics(refactor.final_unit)
        rows.append((ratio * math.log(m.cc), ratio * m.halstead.volume_v))
    alpha, beta, rank, residual = _lstsq2(*zip(*rows), [1.0] * len(rows))
    if rank < 2 and residual > 1e-9 * math.sqrt(len(rows)):
        detail = ", ".join(f"({a:.6g}, {b:.6g})" for a, b in rows)
        raise CalibrationError(
            "calibration design is rank-deficient and inconsistent; "
            f"collinear (ln cc, volume) rows: {detail}"
        )
    return OmegaCalibration(alpha, beta, baseline_source, degenerate=rank < 2)


def calibration_mean_score(
    calibration: OmegaCalibration,
    pairs: Sequence[tuple[SessionLog, SessionLog]],
    idle_gap: float = RunConfig.idle_gap,
) -> float:
    """Mean retention score of the calibration's own baseline pairs."""
    scores = [
        m_csr(build, refactor, calibration, idle_gap=idle_gap).m_csr
        for build, refactor in pairs
    ]
    return math.fsum(scores) / len(scores)  # exact sum: the same in any pair order


def _check_pair(build: SessionLog, refactor: SessionLog) -> None:
    if build.phase != "ai_build":
        raise ValidationError(f"build log has phase {build.phase!r}, expected 'ai_build'")
    if refactor.phase != "cold_refactor":
        raise ValidationError(
            f"refactor log has phase {refactor.phase!r}, expected 'cold_refactor'"
        )
    if build.student != refactor.student:
        raise ValidationError(
            f"phase logs belong to different students: {build.student!r} vs {refactor.student!r}"
        )


# --- scoring ---------------------------------------------------------------


def m_csr(
    build: SessionLog,
    refactor: SessionLog,
    calibration: OmegaCalibration,
    idle_gap: float = RunConfig.idle_gap,
    velocity_unit: str = RunConfig.velocity_unit,
) -> RetentionResult:
    """Retention score for one student's build/refactor pair.

    The complexity weight is evaluated on the refactor target (the unit the
    student had to reconstruct); the build-side weight is also reported so
    the two variants can be compared.
    """
    _check_pair(build, refactor)
    if not build.events or not refactor.events:
        raise ValidationError("both sessions need at least one event")
    delta_seconds = refactor.events[0].t - build.events[-1].t
    if delta_seconds < 0:
        raise ValidationError("refactor session starts before the build session ends")
    v_build = velocity(build, idle_gap=idle_gap, unit=velocity_unit)
    v_rec = velocity(refactor, idle_gap=idle_gap, unit=velocity_unit)
    omega_refactor = omega(metrics(refactor.final_unit), calibration)
    omega_build = omega(metrics(build.final_unit), calibration)
    return RetentionResult(
        student=build.student,
        v_build=v_build,
        v_rec=v_rec,
        omega=omega_refactor,
        m_csr=csr_ratio(v_rec, v_build, omega_refactor),
        delta_t_hours=delta_seconds / 3600.0,
        omega_build=omega_build,
        omega_refactor=omega_refactor,
        calibration_source=calibration.baseline_source,
    )


# --- decay fits ------------------------------------------------------------


def fit_decay(observations: Sequence[tuple[float, float]]) -> DecayFit:
    """Least-squares exponential decay fit ``s(t) = s0 * exp(-lam * t)``.

    Fitted in log space (``ln s = ln s0 - lam * t``); observations with
    ``s <= 0`` cannot enter the log fit and are excluded but counted.
    """
    usable = [(t, s) for t, s in observations if s > 0.0]
    excluded = len(observations) - len(usable)
    if len(usable) < 2:
        raise FitError("decay fit needs at least two observations with s > 0")
    times = [t for t, _ in usable]
    if min(times) == max(times):
        raise FitError("decay fit needs observations at two distinct times")
    spread = f"t spans [{min(times)!r}, {max(times)!r}]"
    try:
        ln_s0, lam, rank, residual = _lstsq2(*zip(*((1.0, -t, math.log(s)) for t, s in usable)))
    except OverflowError:
        raise FitError(f"decay fit overflows a float: {spread}") from None
    if rank < 2:
        raise FitError(f"decay fit cannot tell the times apart at their magnitude: {spread}")
    return DecayFit(
        s0=math.exp(ln_s0),
        lam=lam,
        rms_residual=residual / math.sqrt(len(usable)),
        n_used=len(usable),
        n_excluded=excluded,
    )


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return math.fsum(x * y for x, y in zip(u, v))


def _lstsq2(a: Sequence[float], b: Sequence[float], y: Sequence[float]) -> tuple:
    """``(c0, c1, rank, residual_norm)`` minimizing ``|c0*a + c1*b - y|``: Gram-Schmidt, twice,
    on exactly rounded inner products, so row order and BLAS kernel move no bit.  Rank < 2 (a,
    or b's part off a, at most eps * max(m, 2) times the larger column norm) is minimum-norm."""
    aa, bb = _dot(a, a), _dot(b, b)
    if not math.isfinite(aa + bb + _dot(y, y)):  # past this, every product is finite
        raise OverflowError("least-squares sums pass the float range")
    cutoff = 2.0**-52 * max(len(y), 2) * math.sqrt(max(aa, bb))  # lstsq's default cutoff
    rank = 1 if aa or bb else 0
    if math.sqrt(aa) > cutoff:
        t, p = _dot(a, b) / aa, _dot(a, y) / aa
        b1 = [x - t * u for x, u in zip(b, a)]
        t2 = _dot(a, b1) / aa  # the second pass leaves only rounding error along a
        b1, t = [x - t2 * u for x, u in zip(b1, a)], t + t2
        b1b1 = _dot(b1, b1)
        if math.sqrt(b1b1) > cutoff:
            c1 = _dot(b1, [w - p * u for w, u in zip(y, a)]) / b1b1
            c0, rank = p - t * c1, 2
    if rank < 2:
        c0, c1 = (_dot(a, y) / (aa + bb), _dot(b, y) / (aa + bb)) if rank else (0.0, 0.0)
    r = [c0 * u + c1 * v - w for u, v, w in zip(a, b, y)]
    residual = math.sqrt(_dot(r, r))
    if not math.isfinite(residual):
        raise OverflowError("least-squares solution passes the float range")
    return c0, c1, rank, residual


# --- session-log files -----------------------------------------------------


# An event's payload may be absent or a present null.
_EVENT_FIELDS = {
    "t": as_finite, "kind": as_str, "payload": lambda o, k: None if o[k] is None else as_str(o, k)
}


def _header(rec: dict) -> dict:
    return fields(rec, {"student": as_str, "phase": as_str})


def _event(rec: dict) -> SessionEvent:
    return SessionEvent(**fields(rec, _EVENT_FIELDS, optional=("payload",)))


def _trailer(rec: dict) -> str:
    return fields(rec, {"final_unit": as_str})["final_unit"]


def read_session_log(path: Union[str, Path]) -> SessionLog:
    """Read a session-log file, each record by the table of its position.

    Line 1 is a header ``{"student", "phase"}``; middle lines are events
    ``{"t", "kind", "payload"?}``; the last line is a trailer
    ``{"final_unit": <path relative to the log file>}``.
    """
    path = Path(path)
    lines = jsonl_lines(path)
    if len(lines) < 2:
        raise ValidationError(
            f"{path}: a session log is a header, then events, then a final_unit trailer"
        )
    readers = [_header] + [_event] * (len(lines) - 2) + [_trailer]
    header, *events, unit_rel = (
        read_record(path, n, line, read, "session-log record")
        for (n, line), read in zip(lines, readers)
    )
    unit_path = path.parent / unit_rel
    unit = parse_file(unit_path, unit_path.name, "final unit")
    try:
        return SessionLog(**header, events=tuple(events), final_unit=unit)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_pairs(path: Union[str, Path]) -> list[tuple[SessionLog, SessionLog]]:
    """Per manifest line, its ``build`` and ``refactor`` logs, relative to the manifest."""
    def pair(rec: dict) -> tuple:
        logs = fields(rec, {"build": as_str, "refactor": as_str}).values()
        return tuple(read_session_log(Path(path).parent / log) for log in logs)

    return read_jsonl(path, pair, "pair record")


def write_session_log(log: SessionLog, path: Union[str, Path], unit_rel: str) -> None:
    """Write a session log and its final unit next to each other."""
    path = Path(path)
    records: list[dict] = [{"student": log.student, "phase": log.phase}]
    for event in log.events:
        rec: dict = {"t": event.t, "kind": event.kind}
        if event.payload is not None:
            rec["payload"] = event.payload
        records.append(rec)
    records.append({"final_unit": unit_rel})
    write_jsonl(path, records)
    (path.parent / unit_rel).write_text(log.final_unit.text, encoding="utf-8")
