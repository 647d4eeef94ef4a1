"""End-to-end CLI checks: artifacts, manifest digests, exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest

from softdyn.cli import main
from softdyn.oscillator import DriveParams, OscillatorConfig, simulate


def run(args, tmp_path, sub="a"):
    out = str(tmp_path / sub)
    return main(args + ["--out", out]), out


def load_manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def test_simulate_writes_trajectory_and_manifest(tmp_path):
    code, out = run(["simulate", "--duration", "1.0"], tmp_path)
    assert code == 0
    manifest = load_manifest(out)
    art = manifest["artifacts"]["trajectory.csv"]
    with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
        payload = fh.read()
    assert art["sha256"] == hashlib.sha256(payload).hexdigest()
    assert art["bytes"] == len(payload)
    assert manifest["seed"] == 11


def test_simulate_reproducible_digest(tmp_path):
    _, out1 = run(["simulate", "--duration", "1.0", "--seed", "3"], tmp_path, "r1")
    _, out2 = run(["simulate", "--duration", "1.0", "--seed", "3"], tmp_path, "r2")
    d1 = load_manifest(out1)["artifacts"]["trajectory.csv"]["sha256"]
    d2 = load_manifest(out2)["artifacts"]["trajectory.csv"]["sha256"]
    assert d1 == d2


def test_classify_chaotic_cell(tmp_path):
    code, out = run(["classify", "--periods", "150"], tmp_path)
    assert code == 0
    with open(os.path.join(out, "classification.json")) as fh:
        payload = json.load(fh)
    assert payload["label"] == "Chaotic"


def recorded_csv(path, drop=(), bad_line=None):
    """A `t_s,x,y` file from a simulated 18 Hz run; dropped frames have empty cells."""
    traj = simulate(OscillatorConfig.calibrated_default(),
                    DriveParams(amplitude=9.0, frequency=18.0), 60 / 18.0, 1 / 1080.0)
    lines = ["t_s,x,y"] + [f"{t:.17g},{x:.17g},{y:.17g}"
                           for t, x, y in zip(traj.t, traj.x, traj.y)]
    for i in drop:
        lines[i] = lines[i].split(",")[0] + ",,"
    if bad_line is not None:
        lines[bad_line - 1] = "0.5;0.1;0.2"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_classify_recorded_csv_with_dropped_frame(tmp_path):
    path = recorded_csv(tmp_path / "tracked.csv", drop=(500,))
    code, out = run(["classify", "--input", path], tmp_path)
    assert code == 0
    with open(os.path.join(out, "classification.json")) as fh:
        assert json.load(fh)["label"] in ("Periodic", "Quasiperiodic", "Chaotic")


def test_classify_malformed_recorded_csv_exits_1(tmp_path, capsys):
    path = recorded_csv(tmp_path / "tracked.csv", bad_line=40)
    code, _ = run(["classify", "--input", path], tmp_path)
    assert code == 1
    assert "line 40" in capsys.readouterr().err


def test_sweep_csv_covers_grid(tmp_path):
    code, out = run(["sweep", "--freqs", "3:18:2", "--amps", "0.5:9:2",
                     "--periods", "120"], tmp_path)
    assert code == 0
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    assert len(lines) == 5
    assert "sweep" in load_manifest(out)["sections"]


def test_stochmul_payload(tmp_path):
    code, out = run(["stochmul", "42", "54", "-n", "100000", "--trace"], tmp_path)
    assert code == 0
    with open(os.path.join(out, "stochmul.json")) as fh:
        payload = json.load(fh)
    assert payload["exact"] == 42 * 54
    assert abs(payload["estimate"] - 42 * 54) / (42 * 54) < 0.1
    trace = open(os.path.join(out, "stochmul_trace.csv")).read().splitlines()
    assert trace[0] == "n,estimate"
    assert len(trace) == 100_001


def test_nist_and_report_flow(tmp_path):
    out = str(tmp_path / "flow")
    rng = np.random.default_rng(2)
    os.makedirs(out)
    bits = "".join(str(b) for b in rng.integers(0, 2, 120_000))
    with open(os.path.join(out, "ref_bits.txt"), "w") as fh:
        fh.write("\n".join(bits[i:i + 64] for i in range(0, len(bits), 64)))
    code = main(["nist", "--bits", os.path.join(out, "ref_bits.txt"), "--out", out])
    assert code == 0
    report = json.load(open(os.path.join(out, "nist_report.json")))
    assert report["summary"]["passed"] == report["summary"]["applicable"]
    assert main(["report", "--out", out]) == 0


def test_nist_min_pass_gate(tmp_path):
    out = str(tmp_path / "gate")
    os.makedirs(out)
    path = os.path.join(out, "zeros.txt")
    with open(path, "w") as fh:
        fh.write("0" * 10_000)
    code = main(["nist", "--bits", path, "--out", out, "--min-pass", "6"])
    assert code == 3


def test_report_without_artifacts_exits_3(tmp_path):
    code, _ = run(["report"], tmp_path, "empty")
    assert code == 3


def test_validation_errors_exit_1(tmp_path):
    out = str(tmp_path / "bad")
    assert main(["simulate", "--drive-freq", "-5", "--out", out]) == 1
    assert main(["nist", "--out", out]) == 1  # missing required --bits
    assert main(["nope", "--out", out]) == 1


def test_rc_transform_smoke(tmp_path):
    code, out = run(["rc-transform", "--points", "400"], tmp_path)
    assert code == 0
    payload = json.load(open(os.path.join(out, "rc_transform.json")))
    assert payload["mse_rc"] < payload["mse_baseline"]


def test_rc_mg_smoke(tmp_path):
    code, out = run(["rc-mg", "--lags", "5,20", "--taus", "0,9",
                     "--points", "800"], tmp_path)
    assert code == 0
    lines = open(os.path.join(out, "rc_mg.csv")).read().strip().splitlines()
    assert lines[0] == "lag,tau,mse_rc,mse_baseline"
    assert len(lines) == 5
    summary = json.load(open(os.path.join(out, "rc_mg_summary.json")))
    assert summary["rc_wins"] >= 0


def test_trng_small_run_and_report(tmp_path):
    code, out = run(["trng", "--bits", "3500"], tmp_path)
    assert code == 0
    diag = json.load(open(os.path.join(out, "trng_diagnostics.json")))
    assert diag["n_bits"] >= 3500
    ints = np.loadtxt(os.path.join(out, "integers.csv"), delimiter=",",
                      skiprows=1, dtype=np.int64)
    assert ints[:, 1].max() <= 127
    assert main(["report", "--out", out]) == 0
