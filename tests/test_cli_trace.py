"""CLI tests for the observability surface: ``run --profile``,
``run --trace/--metrics``, and the ``trace`` subcommand."""
import json
import time

import pytest

from repro.cli import main

SMALL = ["--nx", "16", "--ny", "16", "--nz", "8", "--steps", "1"]


def _profile_table(out: str) -> tuple[dict[str, tuple[float, float]], float]:
    """Rows (name -> (seconds, share %)) and total of a printed profile."""
    rows, total = {}, None
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[-1].endswith("%"):
            rows[parts[0]] = (float(parts[-2]), float(parts[-1][:-1]))
        elif len(parts) == 2 and parts[0] == "total":
            total = float(parts[1])
    return rows, total


def test_run_profile_prints_phase_report(capsys):
    assert main(["run", "warm-bubble", *SMALL, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "advect_momentum" in out
    assert "host span" in out and "self seconds" in out


def test_run_profile_counts_nested_phases_once(monkeypatch, capsys):
    """helmholtz_solve runs inside acoustic_substep.  Each span is charged
    its self time, so the table total cannot exceed the run's wall time
    and the shares add up to 100%.  Slowing the nested solve makes a
    double count show: it would push the total past the wall time."""
    from repro.core.helmholtz import HelmholtzOperator

    solve = HelmholtzOperator.solve

    def slow_solve(self, rhs):
        time.sleep(0.05)
        return solve(self, rhs)

    monkeypatch.setattr(HelmholtzOperator, "solve", slow_solve)
    t0 = time.perf_counter()
    assert main(["run", "warm-bubble", *SMALL, "--profile"]) == 0
    wall = time.perf_counter() - t0
    rows, total = _profile_table(capsys.readouterr().out)
    assert total <= wall
    assert rows["helmholtz_solve"][0] >= 0.05 * 10      # 10 substeps
    assert rows["acoustic_substep"][0] < rows["helmholtz_solve"][0]
    assert sum(share for _, share in rows.values()) == pytest.approx(
        100.0, abs=0.05 * len(rows))


def test_run_profile_with_summary_shares_one_session(tmp_path, capsys):
    """--profile beside --trace/--summary reads the traced session: the
    summary holds the span table once, and the trace has the phases."""
    trace = tmp_path / "t.json"
    assert main(["run", "warm-bubble", *SMALL, "--profile", "--summary",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.count("host span") == 1
    doc = json.load(open(trace))
    phases = {ev["name"] for ev in doc["traceEvents"]
              if ev["ph"] == "X" and ev.get("cat") == "phase"}
    assert {"acoustic_substep", "helmholtz_solve"} <= phases


def test_run_profile_multigpu_attaches_no_devices(monkeypatch, capsys):
    from repro.dist.multigpu import MultiGpuAsuca

    def no_attach(self, *args, **kwargs):
        raise AssertionError("a profiled run attached devices")

    monkeypatch.setattr(MultiGpuAsuca, "attach_devices", no_attach)
    assert main(["run", "warm-bubble", *SMALL, "--ranks", "2x2",
                 "--profile"]) == 0
    assert "rk3_long_step" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--trace", "--trace-jsonl", "--history"])
def test_run_rejects_missing_output_directory_before_stepping(
        flag, tmp_path, monkeypatch, capsys):
    from repro.api import Experiment

    def no_step(self):
        raise AssertionError("a step ran")

    monkeypatch.setattr(Experiment, "_step_once", no_step)
    bad = str(tmp_path / "missing" / "out.json")
    assert main(["run", "warm-bubble", *SMALL, flag, bad]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "does not exist" in err[0]


def test_run_trace_single_domain(tmp_path, capsys):
    trace = tmp_path / "single.json"
    assert main(["run", "mountain-wave", *SMALL, "--nz", "10",
                 "--trace", str(trace), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "kernel.launches" in out and "gflops.sustained" in out
    doc = json.load(open(trace))
    cats = {ev.get("cat") for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert "kernel" in cats and "h2d" in cats


def test_trace_subcommand_decomposed(tmp_path, capsys):
    trace = tmp_path / "out.json"
    jsonl = tmp_path / "out.jsonl"
    assert main(["trace", "warm-bubble", *SMALL, "--ranks", "2x2",
                 "-o", str(trace), "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "trace session: warm-bubble" in out
    assert "halo traffic by rank pair" in out

    doc = json.load(open(trace))
    names = {ev["args"]["name"] for ev in doc["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "process_name"}
    assert {"rank0", "rank1", "rank2", "rank3"} <= names
    lines = [json.loads(line) for line in open(jsonl)]
    assert lines[-1]["type"] == "metrics"
