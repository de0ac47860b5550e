"""The benchmark's workloads: seeded inputs, one operation each, and its correctness gate.

Every workload builds its inputs from the run's seed alone and hands the
program only arrays (library workloads) or files (CLI workloads).  A run
holds ``instances`` seeded problem instances and its operations take them
in turn, so a per-run median of a seed-dependent figure such as the
recovery error averages over several problems.  ``generate`` builds the
instances (timed as set-up), ``prepare`` picks the next one untimed,
``op`` is the timed operation, and ``check`` reads its outputs back and
applies the gate.  The gates reuse the acceptance suite's bounds
(``tests/test_acceptance.py``).  CLI outputs are read back with the small
independent readers below, not with the package's own ``dataio``, so a
reader and writer that break together cannot pass the gate.
"""

import json
import re
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import robustpca as rp
import robustpca.cli  # noqa: F401 -- binds rp.cli, which the package does not import

# gates from the acceptance suite
RECOVERY_EXACT = 1e-3   # criterion 04: F-FFP exact recovery
RECOVERY_LOOSE = 1e-2   # criteria 05 and 07: sweep rank identification, IALM baseline
RESIDUAL_TOL = 1e-3     # criterion 04, the default SolverConfig.tol
MAX_ITER = 200          # criterion 04
RANK_REL_TOL = 1e-6     # singular values below this share of the largest count as zero
GRAY_TOL = 1.0          # background vs true scene: rounding (0.5) plus 0.5 of solver error

TRUE_RANK = 5
FRACTION = 0.05

SIZES = {
    # fffp/sweep/ialm: square problem side; background: (height, width, frames)
    "full": {"fffp_2000": 2000, "sweep_cli_400": 400, "ialm_400": 400,
             "background_cli": (120, 160, 200)},
    "tiny": {"fffp_2000": 150, "sweep_cli_400": 120, "ialm_400": 100,
             "background_cli": (24, 32, 30)},
}


@dataclass
class Case:
    """One problem instance: the data (when held in memory), the true low-rank part,
    and the directory of its input files (CLI workloads)."""

    x: np.ndarray | None
    l_star: np.ndarray
    inputs: Path | None = None
    stems: list = field(default_factory=list)


@dataclass
class Outcome:
    """What the gate found in one operation's outputs."""

    iterations: int | None = None
    recovery_error: float | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    def require(self, condition, message):
        if not condition:
            self.problems.append(message)


def read_ffpm(path):
    """FFPM matrix: b"FFPM", version 1, rows and cols as <u8, then <f8 entries."""
    data = Path(path).read_bytes()
    if data[:5] != b"FFPM\x01":
        raise ValueError("%s: not an FFPM version 1 file" % path)
    rows, cols = struct.unpack_from("<QQ", data, 5)
    return np.frombuffer(data, dtype="<f8", offset=21).reshape(rows, cols)


def read_p5(path):
    """8-bit binary graymap: b"P5", width, height, 255, one whitespace byte, raster."""
    data = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if header is None:
        raise ValueError("%s: not an 8-bit P5 graymap" % path)
    width, height = int(header[1]), int(header[2])
    return np.frombuffer(data, dtype=np.uint8, count=width * height,
                         offset=header.end()).reshape(height, width)


def relative_error(l, l_star):
    return float(np.linalg.norm(l - l_star) / np.linalg.norm(l_star))


def spectrum_rank(c):
    sigma = np.linalg.svd(c, compute_uv=False)
    return int((sigma > RANK_REL_TOL * sigma[0]).sum()) if sigma[0] > 0 else 0


class Workload:
    """Seeded problem instances and the operation timed on them."""

    name = None
    instances = 1

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.size = SIZES[scale][self.name]
        self.workdir = Path(workdir)
        self.cases = []
        self.case = None
        self.turn = -1

    def generate(self):
        """Build every instance from the run's seed, writing its input files."""
        self.cases = [
            self.make_case(i, int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0]))
            for i in range(self.instances)
        ]

    def make_case(self, index, seed):
        raise NotImplementedError

    def prepare(self):
        """Untimed, before each operation: take the next instance."""
        self.turn += 1
        self.case = self.cases[self.turn % len(self.cases)]

    def op(self):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError


def synthetic_case(side, seed):
    problem = rp.make_problem(side, side, TRUE_RANK, FRACTION, seed=seed)
    return Case(problem.x, problem.l_star)


class FffpLibrary(Workload):
    name = "fffp_2000"

    def make_case(self, index, seed):
        return synthetic_case(self.size, seed)

    def op(self):
        return rp.solve_fffp(self.case.x, rp.SolverConfig(k=TRUE_RANK))

    def check(self, result):
        factors, _, report = result
        out = Outcome(report.iterations, relative_error(factors.dense(), self.case.l_star))
        out.require(report.converged, "did not converge")
        out.require(report.final_rank == TRUE_RANK, "rank %d" % report.final_rank)
        out.require(report.final_residual <= RESIDUAL_TOL, "residual %.3g" % report.final_residual)
        out.require(report.iterations <= MAX_ITER, "%d iterations" % report.iterations)
        out.require(out.recovery_error <= RECOVERY_EXACT,
                    "recovery error %.3g" % out.recovery_error)
        return out


class IalmLibrary(Workload):
    name = "ialm_400"
    instances = 8

    def make_case(self, index, seed):
        return synthetic_case(self.size, seed)

    def op(self):
        return rp.solve_ialm(self.case.x, rp.SolverConfig(k=TRUE_RANK))

    def check(self, result):
        l, _, report = result
        out = Outcome(report.iterations, relative_error(l, self.case.l_star))
        out.require(report.converged, "did not converge")
        out.require(out.recovery_error <= RECOVERY_LOOSE,
                    "recovery error %.3g" % out.recovery_error)
        return out


class CliWorkload(Workload):
    """Runs one ``robustpca`` command in-process; outputs land in ``workdir/out``."""

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.out = self.workdir / "out"

    def case_dir(self, index):
        path = self.workdir / ("in%d" % index)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def prepare(self):
        super().prepare()
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self):
        return rp.cli.main([str(arg) for arg in self.argv()])

    def read_report(self, out):
        path = self.out / "report.json"
        out.require(path.is_file(), "report.json missing")
        return json.loads(path.read_text()) if path.is_file() else None


class SweepCli(CliWorkload):
    name = "sweep_cli_400"
    instances = 6
    k = 25
    grid_size = 13

    def make_case(self, index, seed):
        case = synthetic_case(self.size, seed)
        case.inputs = self.case_dir(index)
        rp.write_matrix(case.inputs / "X.ffpm", case.x)
        rp.write_matrix(case.inputs / "L_star.ffpm", case.l_star)
        return case

    def argv(self):
        return ["decompose", self.case.inputs / "X.ffpm", "--method", "uffp", "--lambda-sweep",
                "--k", self.k, "--truth", self.case.inputs / "L_star.ffpm", "--out", self.out]

    def check(self, code):
        out = Outcome()
        out.require(code == 0, "exit code %r" % code)
        files = {name: self.out / ("%s.ffpm" % name) for name in "UCVS"}
        missing = [name for name, path in files.items() if not path.is_file()]
        out.require(not missing, "missing outputs %s" % missing)
        report = self.read_report(out)
        if not out.ok:
            return out
        u, c, v, s = (read_ffpm(files[name]) for name in "UCVS")
        d = self.size
        out.require(u.shape == (d, self.k) and c.shape == (self.k, self.k)
                    and v.shape == (d, self.k) and s.shape == (d, d), "output shapes")
        if not out.ok:
            return out
        l = (u @ c) @ v.T
        out.recovery_error = relative_error(l, self.case.l_star)
        sweep = report.get("sweep", [])
        out.iterations = sum(entry["iterations"] for entry in sweep)
        out.require(len(sweep) == self.grid_size, "sweep has %d entries" % len(sweep))
        out.require(report["report"]["final_rank"] == TRUE_RANK
                    and spectrum_rank(c) == TRUE_RANK,
                    "selected rank %r" % report["report"]["final_rank"])
        out.require(out.recovery_error <= RECOVERY_LOOSE,
                    "recovery error %.3g" % out.recovery_error)
        reported = report["metrics"]["recovery_error"]
        out.require(abs(reported - out.recovery_error) <= 1e-9 + 1e-6 * out.recovery_error,
                    "report.json recovery error %r disagrees" % reported)
        residual = float(np.linalg.norm(self.case.x - l - s) / np.linalg.norm(self.case.x))
        out.require(residual <= RESIDUAL_TOL, "residual %.3g" % residual)
        return out


class BackgroundCli(CliWorkload):
    """Static textured scene under per-frame gain, with a bright block sliding across.

    The gain (0.9..1.1 per frame, like auto-exposure) keeps the background
    rank 1 but makes the true background non-integer, so the 8-bit output
    frames cannot match it exactly and ``recovery_error`` is never 0.
    """

    name = "background_cli"

    def make_case(self, index, seed):
        height, width, frames = self.size
        rng = np.random.default_rng(seed)
        scene = rng.integers(60, 160, (height, width)).astype(np.float64)
        gain = rng.uniform(0.9, 1.1, frames)
        block_h, block_w = max(2, height // 6), max(2, width // 12)
        top = int(rng.integers(0, height - block_h))
        case = Case(None, np.empty((height * width, frames)), self.case_dir(index))
        for j in range(frames):
            background = gain[j] * scene
            frame = np.rint(background)
            left = (width - block_w) * j // (frames - 1)
            frame[top:top + block_h, left:left + block_w] = 245.0
            case.l_star[:, j] = background.ravel(order="F")
            case.stems.append("frame_%04d" % j)
            rp.write_pgm(case.inputs / (case.stems[-1] + ".pgm"), frame)
        return case

    def argv(self):
        return ["background", self.case.inputs, "--k", 1, "--out", self.out]

    def check(self, code):
        height, width, frames = self.size
        out = Outcome()
        out.require(code == 0, "exit code %r" % code)
        written = sorted(p.name for p in self.out.glob("*.pgm")) if self.out.is_dir() else []
        expected = sorted("%s_%s.pgm" % (kind, stem)
                          for kind in ("background", "foreground") for stem in self.case.stems)
        out.require(written == expected, "wrote %d of %d frames" % (len(written), len(expected)))
        report = self.read_report(out)
        if not out.ok:
            return out
        background = np.empty_like(self.case.l_star)
        for j, stem in enumerate(self.case.stems):
            frame = read_p5(self.out / ("background_%s.pgm" % stem))
            out.require(frame.shape == (height, width), "frame %s shape" % stem)
            if not out.ok:
                return out
            background[:, j] = frame.ravel(order="F")
        out.iterations = report["report"]["iterations"]
        out.recovery_error = relative_error(background, self.case.l_star)
        out.require(report["report"]["converged"], "did not converge")
        worst = float(np.abs(background - self.case.l_star).max())
        out.require(worst <= GRAY_TOL, "background off the true scene by %.2f gray levels" % worst)
        out.require(out.recovery_error <= RECOVERY_LOOSE,
                    "recovery error %.3g" % out.recovery_error)
        return out


WORKLOADS = {cls.name: cls for cls in (FffpLibrary, SweepCli, BackgroundCli, IalmLibrary)}
