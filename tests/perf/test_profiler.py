"""Tests of the phase profile: the host-span table of a trace session
(:func:`repro.obs.span_table`), which charges every span its self time."""
import time

import pytest

from repro.obs import (TraceSession, span, span_self_times, span_table,
                       use_session)
from repro.workloads.warm_bubble import make_warm_bubble_case


def _session_with(*spans: tuple[str, float, float]) -> TraceSession:
    """A session holding hand-placed (name, ts, dur) host spans."""
    s = TraceSession("t")
    for name, ts, dur in spans:
        s.record_span(name, ts, dur, cat="phase")
    return s


def test_noop_without_active_timer():
    """With no session active the phase spans of a model step record
    nothing anywhere; a session opened afterwards starts empty."""
    case = make_warm_bubble_case(nx=8, ny=8, nz=8, dt=4.0)
    case.run(1)
    s = TraceSession("t")
    assert s.spans == [] and span_self_times(s) == {}


def test_basic_accumulation():
    s = TraceSession("t")
    with use_session(s):
        with span("a", cat="phase"):
            time.sleep(0.01)
        with span("a", cat="phase"):
            pass
        with span("b", cat="phase"):
            pass
    prof = span_self_times(s)
    assert prof["a"][0] == 2 and prof["b"][0] == 1
    assert prof["a"][1] >= 0.01
    assert sum(sec for _, sec in prof.values()) == pytest.approx(
        sum(r.dur for r in s.spans))


def test_nesting_lifo():
    """A nested span's time is taken out of its parent only, at every
    depth, and sequential siblings are not nested."""
    s = _session_with(("outer", 0.0, 10.0), ("mid", 1.0, 6.0),
                      ("inner", 2.0, 1.0), ("inner", 4.0, 2.0),
                      ("sibling", 8.0, 1.0), ("after", 10.0, 3.0))
    prof = span_self_times(s)
    assert prof["outer"] == (1, pytest.approx(3.0))
    assert prof["mid"] == (1, pytest.approx(3.0))
    assert prof["inner"] == (2, pytest.approx(3.0))
    assert prof["sibling"] == (1, pytest.approx(1.0))
    assert prof["after"] == (1, pytest.approx(3.0))


def test_report_and_reset():
    s = _session_with(("outer", 0.0, 4.0), ("inner", 1.0, 1.0),
                      ("other", 5.0, 4.0))
    lines = span_table(s).splitlines()
    assert lines[0].split() == ["host", "span", "calls", "self", "seconds",
                                "share"]
    assert [ln.split()[0] for ln in lines[1:]] == ["other", "outer",
                                                   "inner", "total"]
    assert lines[1].split()[-1] == "50.0%"
    assert lines[-1].split() == ["total", "8.0000"]
    # a fresh session starts from an empty table
    empty = span_table(TraceSession("t")).splitlines()
    assert [ln.split() for ln in empty[1:]] == [["total", "0.0000"]]


def test_model_phases_recorded():
    """A real model step records the instrumented phases, and the
    warm-rain share is small — the paper's '1.0% GPU time' observation
    holds for the NumPy implementation too."""
    case = make_warm_bubble_case(nx=12, ny=12, nz=12, dt=4.0)
    s = TraceSession("t")
    with use_session(s):
        case.run(3)
    prof = span_self_times(s)
    for phase in ("advect_momentum", "advect_theta", "advect_moisture",
                  "acoustic_substep", "helmholtz_solve", "physics_warm_rain"):
        assert prof[phase][0] > 0, phase
    total = sum(sec for _, sec in prof.values())
    assert prof["physics_warm_rain"][1] < 0.1 * total


def test_exception_still_charges():
    s = TraceSession("t")
    with use_session(s):
        with pytest.raises(ValueError):
            with span("boom", cat="phase"):
                raise ValueError("x")
    assert span_self_times(s)["boom"][0] == 1


def test_use_session_reentrant_same_session():
    """Nesting use_session with the *same* session records each span
    exactly once — the innermost activation wins, not both entries."""
    s = TraceSession("t")
    with use_session(s):
        with use_session(s):
            with span("inner"):
                pass
        with span("outer"):
            pass
    assert [r.name for r in s.spans] == ["inner", "outer"]


def test_use_session_restores_outer_after_inner_exits():
    """Three-deep nesting: after the innermost block exits, spans go
    back to the next session on the stack (LIFO restore)."""
    a, b, c = TraceSession("a"), TraceSession("b"), TraceSession("c")
    with use_session(a):
        with use_session(b):
            with use_session(c):
                with span("deep"):
                    pass
            with span("mid"):
                pass
        with span("top"):
            pass
    assert [r.name for r in c.spans] == ["deep"]
    assert [r.name for r in b.spans] == ["mid"]
    assert [r.name for r in a.spans] == ["top"]
