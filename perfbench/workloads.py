"""The benchmark's four workloads: set-up, one round of operations, checks.

Every operation goes through softdyn's own entry point, `softdyn.cli.main`,
in-process, except the Lyapunov estimates, which have no command.  A round
is the same list of operations on every run; its inputs come from the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import checks
from softdyn import cli, nist, oscillator, reservoir, signals
from softdyn.errors import SoftdynError


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def write_bits(path: str, bits) -> None:
    text = (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode()
    with open(path, "w") as fh:
        fh.write("\n".join(text[i:i + 64] for i in range(0, len(text), 64)) + "\n")


def run_cli(*argv) -> int:
    """softdyn.cli.main on argv, its standard output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def e_bits(n: int) -> np.ndarray:
    """First n bits of the binary expansion of e, integer part included, from mpmath."""
    import mpmath
    mpmath.mp.prec = n + 64
    digits = bin(mpmath.libmp.to_fixed(mpmath.e._mpf_, n + 32))[2:n + 2]
    return np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")


class Ops:
    """Runs operations and counts those attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def count(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def cli(self, *argv) -> float:
        """Run one softdyn command; a non-zero exit counts as failed. Returns seconds."""
        span = self.tracer.span("cli.command") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            code = run_cli(*argv)
        elapsed = time.perf_counter() - start
        self.count(code == 0)
        return elapsed


class Sweep:
    """`softdyn sweep` on a 2x2 grid, Lyapunov estimates on two of its cells, one `simulate`.

    The 4 Hz row lies below both modes, so the 16.2 Hz mode sets its step
    (243 steps per period); the other row lies in the chaotic band above
    16.2 Hz, where the drive sets the step (60 per period), so the seed moves
    its frequency without changing the work.  The seed draws that frequency
    and the high amplitude from a part of the band with no periodic window.
    """

    F_LO, A_LO = 4.0, 0.5
    PERIODS = 100
    LYAPUNOV_PERIODS = 200
    SIM_DURATION = 2.0
    SIM_DT = 1.0 / 972.0  # default_step at 4 Hz: 60 steps per 16.2 Hz period

    def __init__(self, seed: int, out: str):
        rng = np.random.default_rng(seed)
        self.f_hi = round(float(rng.uniform(17.0, 17.6)), 2)
        self.a_hi = round(float(rng.uniform(8.5, 9.0)), 2)
        self.out = out
        self.config = oscillator.OscillatorConfig.calibrated_default()
        self.grid = [(f, a) for f in (self.F_LO, self.f_hi) for a in (self.A_LO, self.a_hi)]
        self.cells = {"Periodic": (self.F_LO, self.A_LO), "Chaotic": (self.f_hi, self.a_hi)}
        self.lyapunov = {}

    def estimate(self, ops: Ops, label: str) -> float:
        """Largest Lyapunov exponent of one cell; returns seconds."""
        f, a = self.cells[label]
        drive = oscillator.DriveParams(amplitude=a, frequency=f)
        start = time.perf_counter()
        try:
            self.lyapunov[label] = oscillator.largest_lyapunov(
                self.config, drive, (self.LYAPUNOV_PERIODS + 0.5) / f,
                oscillator.default_step(self.config, drive), with_stderr=True)
            ops.count(True)
        except (SoftdynError, ValueError):
            self.lyapunov.pop(label, None)
            ops.count(False)
        return time.perf_counter() - start

    def round(self, ops: Ops) -> dict:
        t_sweep = ops.cli("sweep", "--freqs", f"{self.F_LO}:{self.f_hi}:2",
                          "--amps", f"{self.A_LO}:{self.a_hi}:2",
                          "--periods", self.PERIODS, "--out", self.out)
        try:
            labels = checks.parse_sweep_csv(read(os.path.join(self.out, "sweep.csv")))
        except (OSError, ValueError):
            labels = {}
        labelled = sum(labels.get(cell) in checks.LABELS for cell in self.grid)
        ops.count(True, labelled)
        ops.count(False, len(self.grid) - labelled)
        t_lyap = sum(self.estimate(ops, label) for label in self.cells)
        ops.cli("simulate", "--drive-freq", self.F_LO, "--drive-amp", self.A_LO,
                "--duration", self.SIM_DURATION, "--dt", repr(self.SIM_DT), "--out", self.out)
        return {"sweep.cells_per_s": (len(self.grid) / t_sweep, "1/s"),
                "lyapunov.periods_per_s": (len(self.cells) * self.LYAPUNOV_PERIODS / t_lyap, "1/s")}

    def check(self) -> list:
        cells = checks.parse_sweep_csv(read(os.path.join(self.out, "sweep.csv")))
        failures = checks.check_sweep(cells, (self.F_LO, self.f_hi), (self.A_LO, self.a_hi),
                                      self.cells["Periodic"], self.cells["Chaotic"])
        for label in self.cells:
            if label not in self.lyapunov:
                failures.append(f"no Lyapunov estimate for the {label} cell")
                continue
            failures += checks.check_lyapunov(label, *self.lyapunov[label])
        runs = []
        for divisor in (2, 4):
            sub = os.path.join(self.out, f"step-h{divisor}")
            code = run_cli("simulate", "--drive-freq", self.F_LO, "--drive-amp", self.A_LO,
                           "--duration", self.SIM_DURATION, "--dt", repr(self.SIM_DT / divisor),
                           "--out", sub)
            if code != 0:
                return failures + [f"simulate at step h/{divisor} exited {code}"]
            runs.append(checks.parse_trajectory_csv(read(os.path.join(sub, "trajectory.csv"))))
        output = checks.parse_trajectory_csv(read(os.path.join(self.out, "trajectory.csv")))
        n = len(output)
        half, quarter = runs[0][1::2][:n], runs[1][3::4][:n]
        ref_x, ref_y = checks.reference_tip_trajectory(self.config, self.A_LO, self.F_LO, output[:, 0])
        for col, ref in ((1, ref_x), (2, ref_y)):
            failures += checks.check_against_reference(
                f"simulate {'xy'[col - 1]}", output[:, col], half[:, col], quarter[:, col], ref)
        return failures


class Trng:
    """`softdyn trng` at 1e5 bits, then `softdyn stochmul --bits` on the harvested file."""

    BITS = 100_000
    MUL_BITS = 7_000  # two operands of 7000 integers each, from 14285 harvested
    X1, X2 = 42, 54

    def __init__(self, seed: int, out: str):
        self.seed = seed
        self.out = out

    def round(self, ops: Ops) -> dict:
        t = ops.cli("trng", "--bits", self.BITS, "--seed", self.seed, "--out", self.out)
        ops.cli("stochmul", self.X1, self.X2, "--bits", os.path.join(self.out, "bits.txt"),
                "-n", self.MUL_BITS, "--out", self.out)
        return {"trng.bits_per_s": (self.BITS / t, "1/s")}

    def check(self) -> list:
        bits = checks.parse_bits(read(os.path.join(self.out, "bits.txt")))
        payload = checks.load_json(os.path.join(self.out, "stochmul.json"))
        return (checks.check_bits(bits, self.BITS)
                + checks.check_stochmul(payload, self.X1, self.X2))


class Battery:
    """`softdyn nist` on 1 Mbit of e (fixed) and 1 Mbit of a PRNG stream seeded by --seed."""

    BITS = 1_000_000

    def __init__(self, seed: int, out: str):
        self.out = out
        self.inputs = {"e": e_bits(self.BITS),
                       "prng": np.random.default_rng(seed).integers(0, 2, self.BITS)}
        for name, bits in self.inputs.items():
            write_bits(os.path.join(out, f"{name}.txt"), bits)

    def round(self, ops: Ops) -> dict:
        elapsed = sum(ops.cli("nist", "--bits", os.path.join(self.out, f"{name}.txt"),
                              "--out", os.path.join(self.out, name))
                      for name in self.inputs)
        return {"battery.mbit_per_s": (len(self.inputs) * self.BITS / 1e6 / elapsed, "Mbit/s")}

    def test_times(self) -> dict:
        """Seconds per battery test over both inputs, each test called on its own."""
        times = {}
        for test in nist_tests():
            start = time.perf_counter()
            for bits in self.inputs.values():
                test(bits)
            times[test.__name__] = time.perf_counter() - start
        return times

    def check(self) -> list:
        e_report = checks.load_json(os.path.join(self.out, "e", "nist_report.json"))
        prng_report = checks.load_json(os.path.join(self.out, "prng", "nist_report.json"))
        return checks.check_known_answers(e_report) + checks.check_prng_report(prng_report)


class Reservoir:
    """`softdyn rc-mg` (3000 points, 5x8 lag x tau grid), then `softdyn rc-transform --target square`.

    The seed draws the carrier field scale, which changes no step count.
    """

    LAGS = (1, 5, 10, 20, 35)
    TAUS = (0, 1, 3, 6, 9, 10, 12, 15)
    MG_POINTS = 3000
    TRANSFORM_POINTS = 1000

    def __init__(self, seed: int, out: str):
        rng = np.random.default_rng(seed)
        self.field = round(float(rng.uniform(0.2, 0.3)), 3)
        self.probe = rng.uniform(0.0, 1.0, 12)
        self.out = out

    def round(self, ops: Ops) -> dict:
        elapsed = ops.cli("rc-mg", "--lags", ",".join(map(str, self.LAGS)),
                          "--taus", ",".join(map(str, self.TAUS)), "--points", self.MG_POINTS,
                          "--field", self.field, "--out", self.out)
        elapsed += ops.cli("rc-transform", "--target", "square", "--points", self.TRANSFORM_POINTS,
                           "--field", self.field, "--out", self.out)
        points = self.MG_POINTS + self.TRANSFORM_POINTS
        return {"reservoir.points_per_s": (points / elapsed, "1/s")}

    def check(self) -> list:
        grid = checks.parse_rc_mg_csv(read(os.path.join(self.out, "rc_mg.csv")))
        summary = checks.load_json(os.path.join(self.out, "rc_mg_summary.json"))
        series = checks.minmax(signals.mackey_glass(signals.MGParams(n_points=self.MG_POINTS)))
        failures = checks.check_rc_mg(grid, summary, self.LAGS, self.TAUS, series)
        failures += checks.check_rc_transform(
            checks.load_json(os.path.join(self.out, "rc_transform.json")))
        config = oscillator.OscillatorConfig.calibrated_default()
        runs = [reservoir.excite_reservoir(self.probe, self.field, config=config,
                                           steps_per_point=60 * k) for k in (1, 2, 4)]
        ref = checks.reference_reservoir(config, self.probe, self.field,
                                         reservoir.DEFAULT_CARRIER.frequency)
        for i, axis in enumerate("xy"):
            failures += checks.check_against_reference(
                f"excite_reservoir {axis}", *(r[i] for r in runs), checks.minmax(ref[i]))
        fixed = signals.mackey_glass(signals.MGParams(history=1.0, n_points=200))
        return failures + checks.check_fixed_point(fixed)


WORKLOADS = {"sweep": Sweep, "trng": Trng, "battery": Battery, "reservoir": Reservoir}

# The pipeline rates that the workloads' rounds return, with their units.
RATES = {"sweep.cells_per_s": "1/s", "lyapunov.periods_per_s": "1/s",
         "trng.bits_per_s": "1/s", "battery.mbit_per_s": "Mbit/s",
         "reservoir.points_per_s": "1/s"}


def nist_tests() -> list:
    """The battery's public test functions, in the battery's order of names."""
    return [getattr(nist, name) for name in nist.__all__
            if name not in ("TestResult", "run_battery", "battery_report")]
