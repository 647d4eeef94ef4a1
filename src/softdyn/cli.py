"""Command-line entry point wiring the simulator, classifiers and pipelines.

Every subcommand writes its artifacts under the output directory and
records them in `manifest.json` with content digests, so a `report` call
can summarize a whole run.  Artifact content is deterministic for a
fixed seed; timestamps live only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time

import click
import numpy as np

from . import nist as nist_mod
from . import regime, reservoir, signals, stochastic, trajio, trng
from .errors import BoundaryGapError, ParseError, SchemaError, SoftdynError
from .oscillator import (DriveParams, OscillatorConfig, Trajectory, default_step,
                         simulate)

EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Workspace:
    """Output directory with a manifest of produced artifacts."""

    def __init__(self, out: str, seed: int):
        self.out = out
        self.seed = seed
        os.makedirs(out, exist_ok=True)
        self.manifest_path = os.path.join(out, "manifest.json")
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as fh:
                self.manifest = json.load(fh)
        else:
            self.manifest = {"artifacts": {}, "sections": {}}
        self.manifest["seed"] = seed

    def add_text(self, name: str, text: str) -> str:
        path = os.path.join(self.out, name)
        _atomic_write(path, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.manifest["artifacts"][name] = {
            "sha256": digest, "bytes": len(text.encode()),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        return path

    def add_json(self, name: str, payload) -> str:
        return self.add_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def record_section(self, name: str, summary: dict) -> None:
        self.manifest["sections"][name] = summary

    def save(self) -> None:
        _atomic_write(self.manifest_path,
                      json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")


def _load_config(path: str | None) -> OscillatorConfig:
    if path is None:
        return OscillatorConfig.calibrated_default()
    return OscillatorConfig.from_json(path)


def _read_trajectory(path: str, drive: DriveParams) -> Trajectory:
    """Load a recorded `t_s,x,y` CSV or a simulated `t_s,x,y,phase` CSV, by header.

    A recorded file has its dropped frames interpolated and is resampled
    at one over its median frame interval.
    """
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
    if header != "t_s,x,y":
        return Trajectory.from_csv(path)
    series = trajio.fill_gaps(trajio.load_tracked_csv(path))
    rate = 1.0 / float(np.median(np.diff(series.t)))
    return trajio.resample_uniform(series, rate, drive)


def _grid(spec: str) -> np.ndarray:
    lo, hi, num = spec.split(":")
    return np.linspace(float(lo), float(hi), int(num))


_global_options = [
    click.option("--seed", type=int, default=11, show_default=True,
                 help="Root seed; all module substreams derive from it."),
    click.option("--out", type=click.Path(), default="artifacts", show_default=True,
                 help="Artifact output directory."),
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="Oscillator config JSON (default: calibrated)."),
]


def global_options(fn):
    for opt in reversed(_global_options):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Soft-actuator dynamics toolkit: simulate, classify, and compute."""


@cli.command("simulate")
@global_options
@click.option("--drive-freq", type=float, default=18.0, show_default=True)
@click.option("--drive-amp", type=float, default=9.0, show_default=True)
@click.option("--tilt", type=float, default=0.0, show_default=True)
@click.option("--duration", type=float, default=10.0, show_default=True)
@click.option("--dt", type=float, default=None, help="Step (default: 60 per fastest period).")
@click.option("--noise", type=float, default=0.0, show_default=True,
              help="Measurement noise sigma on tip coordinates.")
def simulate_cmd(seed, out, config_path, drive_freq, drive_amp, tilt,
                 duration, dt, noise):
    """Integrate one trajectory and export it as CSV."""
    ws = Workspace(out, seed)
    config = _load_config(config_path)
    drive = DriveParams(amplitude=drive_amp, frequency=drive_freq, tilt=tilt)
    if dt is None:
        dt = default_step(config, drive)
    traj = simulate(config, drive, duration, dt, noise_sigma=noise, seed=seed)
    path = ws.add_text("trajectory.csv", traj.to_csv())
    ws.record_section("simulate", {"samples": len(traj),
                                   "drive_freq": drive_freq,
                                   "drive_amp": drive_amp})
    ws.save()
    click.echo(f"wrote {path} ({len(traj)} samples)")


@cli.command()
@global_options
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="Trajectory CSV to classify, recorded (t_s,x,y) or simulated "
                   "(t_s,x,y,phase) (default: simulate one).")
@click.option("--drive-freq", type=float, default=18.0, show_default=True)
@click.option("--drive-amp", type=float, default=9.0, show_default=True)
@click.option("--periods", type=int, default=300, show_default=True)
def classify(seed, out, config_path, input_path, drive_freq, drive_amp, periods):
    """Label a trajectory Periodic / Quasiperiodic / Chaotic."""
    ws = Workspace(out, seed)
    config = _load_config(config_path)
    drive = DriveParams(amplitude=drive_amp, frequency=drive_freq)
    if input_path is not None:
        traj = _read_trajectory(input_path, drive)
    else:
        dt = default_step(config, drive)
        traj = simulate(config, drive, (periods + 20) / drive_freq, dt)
    label = regime.classify_trajectory(traj, drive)
    payload = {"label": label.label, "ambiguous": label.ambiguous,
               "cluster_count": label.cluster_count,
               "clustered_fraction": label.clustered_fraction,
               "flatness": label.flatness,
               "harmonic_fraction": label.harmonic_fraction}
    ws.add_json("classification.json", payload)
    ws.record_section("classify", {"label": label.label})
    ws.save()
    click.echo(label.label)


@cli.command()
@global_options
@click.option("--freqs", default="1:20:10", show_default=True,
              help="Frequency grid lo:hi:n (Hz).")
@click.option("--amps", default="0.5:9:7", show_default=True,
              help="Amplitude grid lo:hi:n (mT).")
@click.option("--periods", type=int, default=300, show_default=True)
def sweep(seed, out, config_path, freqs, amps, periods):
    """Phase-diagram sweep over the drive grid."""
    ws = Workspace(out, seed)
    config = _load_config(config_path)
    results = regime.phase_diagram_sweep(config, _grid(freqs), _grid(amps),
                                         periods=periods)
    ws.add_text("sweep.csv", regime.sweep_to_csv(results))
    labels = [r.label for r in results.values()
              if isinstance(r, regime.RegimeLabel)]
    counts = {name: labels.count(name)
              for name in (regime.PERIODIC, regime.QUASIPERIODIC, regime.CHAOTIC)}
    ws.record_section("sweep", {"cells": len(results), "counts": counts})
    ws.save()
    click.echo(f"sweep: {counts}")


@cli.command("trng")
@global_options
@click.option("--duration", type=float, default=None,
              help="Raw acquisition seconds per ensemble (alternative to --bits).")
@click.option("--drive-freq", type=float, default=18.0, show_default=True)
@click.option("--drive-amp", type=float, default=9.0, show_default=True)
@click.option("--bits", "n_bits", type=int, default=103600, show_default=True)
def trng_cmd(seed, out, config_path, duration, drive_freq, drive_amp, n_bits):
    """Harvest chaotic motion into whitened random bits plus diagnostics."""
    ws = Workspace(out, seed)
    config = _load_config(config_path)
    if duration is not None:
        # one Poincare point per drive period, 1480/1500 kept per block,
        # 5x decimation, 7 bits per integer
        n_bits = int(duration * drive_freq * (1480.0 / 1500.0) / 5.0) * 7
    primary = DriveParams(amplitude=drive_amp, frequency=drive_freq)
    secondary = DriveParams(amplitude=6.0, frequency=16.0)
    bits = trng.generate_bits(config, n_bits, seed=seed,
                              drives=(primary, secondary))
    ints = bits.integers
    rho = trng.autocorrelation(ints.astype(float), 50)
    max_rho = float(np.abs(rho[1:]).max())
    counts = np.bincount(ints, minlength=128)
    expected = len(ints) / 128.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    from scipy import stats as sp_stats
    chi2_p = float(sp_stats.chi2.sf(chi2, 127))
    ks_p = float(sp_stats.kstest((ints + 0.5) / 128.0, "uniform").pvalue)
    ws.add_text("bits.txt", bits.to_ascii())
    ws.add_text("integers.csv", "index,value\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(ints)))
    diag = {"n_bits": len(bits), "n_integers": len(ints),
            "chi2_p": chi2_p, "ks_p": ks_p, "max_autocorrelation": max_rho,
            "autocorrelation_bound": 3.0 / float(np.sqrt(len(ints)))}
    ws.add_json("trng_diagnostics.json", diag)
    ws.record_section("trng", diag)
    ws.save()
    click.echo(f"{len(bits)} bits; chi2 p={chi2_p:.3f} ks p={ks_p:.3f} "
               f"max|rho|={max_rho:.4f}")


@cli.command("nist")
@global_options
@click.option("--bits", "bits_path", type=click.Path(exists=True), required=True,
              help="ASCII bit file to test.")
@click.option("--alpha", type=float, default=0.01, show_default=True)
@click.option("--min-pass", type=int, default=0, show_default=True,
              help="Exit 3 unless at least this many applicable tests pass.")
def nist_cmd(seed, out, config_path, bits_path, alpha, min_pass):
    """Run the randomness battery over a bit file."""
    ws = Workspace(out, seed)
    bits = trng.BitStream.from_ascii(bits_path)
    results = nist_mod.run_battery(bits.bits, alpha=alpha)
    report = nist_mod.battery_report(results)
    ws.add_json("nist_report.json", report)
    ws.record_section("nist", report["summary"])
    ws.save()
    summary = report["summary"]
    click.echo(f"passed {summary['passed']}/{summary['applicable']} applicable tests")
    if summary["passed"] < min_pass:
        sys.exit(EXIT_CHECK)


@cli.command("stochmul")
@click.argument("x1", type=int)
@click.argument("x2", type=int)
@global_options
@click.option("-n", "n_bits", type=int, default=1000, show_default=True)
@click.option("-k", "width", type=int, default=7, show_default=True)
@click.option("--bits", "bits_path", type=click.Path(exists=True), default=None,
              help="Use integers from a harvested bit file instead of a PRNG.")
@click.option("--trace/--no-trace", default=False, show_default=True,
              help="Also export the per-prefix convergence CSV.")
def stochmul(x1, x2, seed, out, config_path, n_bits, width, bits_path, trace):
    """Stochastic AND multiplication of X1 and X2."""
    ws = Workspace(out, seed)
    if bits_path is not None:
        rnd = trng.BitStream.from_ascii(bits_path, width=width).integers
    else:
        rnd = np.random.default_rng(seed).integers(0, 1 << width, 2 * n_bits)
    estimate, rel_error, running = stochastic.stochastic_multiply(
        x1, x2, width, n_bits, rnd)
    payload = {"x1": x1, "x2": x2, "k": width, "n": n_bits,
               "estimate": estimate, "exact": x1 * x2, "rel_error": rel_error}
    ws.add_json("stochmul.json", payload)
    if trace:
        ws.add_text("stochmul_trace.csv", "n,estimate\n" + "".join(
            f"{i + 1},{v}\n" for i, v in enumerate(running)))
    ws.record_section("stochmul", payload)
    ws.save()
    click.echo(json.dumps(payload))


@cli.command("rc-transform")
@global_options
@click.option("--target", type=click.Choice(["square", "sawtooth"]),
              default="square", show_default=True)
@click.option("--lag", type=int, default=35, show_default=True)
@click.option("--points", type=int, default=1000, show_default=True)
@click.option("--field", type=float, default=0.25, show_default=True,
              help="Carrier field scale in mT.")
def rc_transform(seed, out, config_path, target, lag, points, field):
    """Waveform transformation through the simulated reservoir."""
    ws = Workspace(out, seed)
    config = _load_config(config_path)
    mse_rc, mse_bl, preds = reservoir.run_transform_task(
        target, n_points=points, lag=lag, field_scale=field, config=config)
    payload = {"target": target, "lag": lag, "field_mT": field,
               "mse_rc": mse_rc, "mse_baseline": mse_bl}
    ws.add_json("rc_transform.json", payload)
    ws.add_text("rc_transform_predictions.csv", "rc,baseline\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(preds["rc"], preds["baseline"])))
    ws.record_section("rc_transform", payload)
    ws.save()
    click.echo(f"MSE rc={mse_rc:.3e} baseline={mse_bl:.3e}")


@cli.command("rc-mg")
@global_options
@click.option("--lags", default="1,5,10,20,35", show_default=True)
@click.option("--taus", default="0,1,3,6,9,10,12,15", show_default=True)
@click.option("--points", type=int, default=3000, show_default=True)
@click.option("--field", type=float, default=0.25, show_default=True)
def rc_mg(seed, out, config_path, lags, taus, points, field):
    """Mackey-Glass prediction phase diagram, reservoir vs baseline."""
    ws = Workspace(out, seed)
    config = _load_config(config_path)
    lag_list = [int(v) for v in lags.split(",")]
    tau_list = [int(v) for v in taus.split(",")]
    mse_rc, mse_bl, meta = reservoir.run_mg_task(
        lag_list, tau_list, n_points=points, field_scale=field, config=config)
    lines = ["lag,tau,mse_rc,mse_baseline"]
    for i, lag in enumerate(lag_list):
        for j, tau in enumerate(tau_list):
            lines.append(f"{lag},{tau},{float(mse_rc[i, j])!r},{float(mse_bl[i, j])!r}")
    ws.add_text("rc_mg.csv", "\n".join(lines) + "\n")
    summary = {"lags": lag_list, "taus": tau_list,
               "errors": {f"{k[0]},{k[1]}": v for k, v in meta["errors"].items()}}
    with np.errstate(invalid="ignore"):
        summary["rc_wins"] = int(np.nansum(mse_rc < mse_bl))
    ws.add_json("rc_mg_summary.json", summary)
    ws.record_section("rc_mg", summary)
    ws.save()
    click.echo(f"grid {len(lag_list)}x{len(tau_list)}; rc wins {summary['rc_wins']} cells")


@cli.command("report")
@global_options
def report(seed, out, config_path):
    """One-screen summary of everything recorded in the manifest."""
    manifest_path = os.path.join(out, "manifest.json")
    if not os.path.exists(manifest_path):
        click.echo("no artifacts")
        sys.exit(EXIT_CHECK)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    sections = manifest.get("sections", {})
    if not sections:
        click.echo("no artifacts")
        sys.exit(EXIT_CHECK)
    failed = False
    missing = [name for name in manifest.get("artifacts", {})
               if not os.path.exists(os.path.join(out, name))]
    click.echo("== Regimes ==")
    if "sweep" in sections:
        click.echo(f"  {sections['sweep']['counts']}")
    elif "classify" in sections:
        click.echo(f"  single run: {sections['classify']['label']}")
    else:
        click.echo("  absent")
    click.echo("== Randomness ==")
    if "nist" in sections:
        s = sections["nist"]
        ok = s["passed"] == s["applicable"]
        click.echo(f"  NIST {s['passed']}/{s['applicable']}"
                   + ("" if ok else "  FAILED"))
        failed = failed or not ok
    elif "trng" in sections:
        click.echo(f"  trng max|rho| = {sections['trng']['max_autocorrelation']:.4f}")
    else:
        click.echo("  absent")
    click.echo("== Stochastic multiply ==")
    if "stochmul" in sections:
        s = sections["stochmul"]
        click.echo(f"  {s['x1']}x{s['x2']} -> {s['estimate']} "
                   f"(rel err {s['rel_error']:.2%})")
    else:
        click.echo("  absent")
    click.echo("== Reservoir ==")
    if "rc_transform" in sections:
        s = sections["rc_transform"]
        click.echo(f"  {s['target']}: rc {s['mse_rc']:.3e} vs baseline {s['mse_baseline']:.3e}")
    if "rc_mg" in sections:
        click.echo(f"  mg grid: rc wins {sections['rc_mg']['rc_wins']} cells")
    if "rc_transform" not in sections and "rc_mg" not in sections:
        click.echo("  absent")
    if missing:
        click.echo(f"missing artifacts: {', '.join(missing)}")
    if failed or missing:
        sys.exit(EXIT_CHECK)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_VALIDATION
    except click.ClickException as exc:
        exc.show()
        return EXIT_VALIDATION
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ParseError, SchemaError, BoundaryGapError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except SoftdynError as exc:
        click.echo(f"runtime error: {exc}", err=True)
        return EXIT_RUNTIME
    return 0


if __name__ == "__main__":
    sys.exit(main())
