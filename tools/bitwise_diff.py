"""Compare the outputs of two source trees of robustpca bit for bit.

    python tools/bitwise_diff.py PARENT_TREE CHANGE_TREE

Each tree's ``src`` is imported in its own subprocess (through
``tools/trees.py``), which runs a fixed, seeded corpus and pickles one
``{key: bytes}`` map.  The corpus:

* library solves on 400x400, 300x120 and 120x300 problems: the start
  factors, ``solve_fffp``, ``solve_uffp`` at a positive weight and at 0,
  the last ``IterationState``'s ``theta`` and ``rho`` of the ``solve_fffp``
  and positive-weight ``solve_uffp`` runs, ``solve_ialm`` converged and at
  the iteration cap, the default lambda grid, and every ``lambda_sweep``
  entry and the selected index;
* ``solve_fffp``, ``solve_uffp`` at a positive weight and ``lambda_sweep``
  (``sweep_tol1e-6``) on the 400x400 and 300x120 problems at tol 1e-6,
  below ``FLOAT32_TOL``, so in float64 buffers (at the default tol they
  solve float64 data in float32 buffers);
* ``solve_fffp``, ``solve_uffp`` at a positive weight and ``lambda_sweep``
  on the 300x120 problem cast to float32, which they solve in float32;
* ``solve_fffp``, ``solve_ialm`` and ``solve_uffp`` at a positive weight on
  the 300x120 problem scaled by 2**520 and by 2**-600, far outside [2**-32,
  2**32], so each solves a rescaled working matrix and scales its outputs
  back.  uffp runs at the unscaled problem's weight and at that weight
  scaled with the data (``uffp_scaled_lam``): its surrogate is not
  homogeneous, so neither is the scaled problem's solve.  A call here that
  raises is recorded as its exception's type and message, so a tree on
  which it fails still runs the whole corpus;
* ``read_pgm`` on graymap headers (``lib/pgm/*``): comments between fields,
  before the magic and running to the end of the file, tab and CR LF
  separators, a maxval below 255, a ``#`` inside a field, and headers it
  must refuse, each refusal recorded as its exception's type and message;
  and ``load_frame_stack`` of a directory of frames with commented headers;
* CLI runs of ``synth``, ``decompose`` (fffp, ialm, uffp, sweep, capped),
  ``background`` (fffp, ialm, sweep), ``anomaly`` (converged, capped, threshold),
  ``bench``, and inputs that must be refused (non-finite weights and
  thresholds, the removed ``--init``, and every ``--method``, ``--lambda``
  and ``--lambda-sweep`` mix that leaves a flag unused or uffp without a
  weight): every file they write and every exit code.

Arrays are compared by dtype, shape and raw bytes, reports field by field
without ``wall_time`` (a field only one tree has is one differing key), JSON
files leaf by leaf with every ``wall_time`` key dropped, other files as raw
bytes.  Of ``bench``'s outputs only what is not measured is compared: the
header and size column of ``scaling.csv`` and the size of each ``fit.json``
row; its seconds, and the R^2 fitted to them, are dropped like ``wall_time``.
The script prints each key that differs (a file only one tree wrote as a
single line), followed by the largest relative difference: per entry for a
report field or JSON leaf that holds a float or a list of floats on both
sides, and relative to the largest magnitude on either side for float arrays
of one shape.  A summary then gives, per group (a library case such as
``lib/400x400/sweep``, or a CLI run), the number of differing keys and the
largest relative difference per leaf (such as ``u`` or
``report/final_residual``), with sweep entry numbers and JSON list indices
collapsed; ``-`` marks a leaf compared as raw bytes, of another type, or that
only one tree has.  It exits 1 if any key differs, 0 otherwise.  Both trees
must accept the calls below (the scaled solves may raise); a tree whose API
moved needs the corpus edited to match.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import pickle
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import trees

LIB_CASES = (((400, 400), 25), ((300, 120), 10), ((120, 300), 10))
FLOAT64_CASES = ((400, 400), (300, 120))  # shapes also solved at tol 1e-6
SCALES = (520, -600)  # powers of two the 300x120 problem is also solved at
PGM_FILES = (  # 2x2 graymaps with the raster 1 2 3 4 where the header parses
    ("plain", b"P5\n2 2\n255\n\x01\x02\x03\x04"),
    ("comments", b"P5 # comment\n# another\n2 2\n255\n\x01\x02\x03\x04"),
    ("comment_before_magic", b"# made by hand\nP5 2 2 255\n\x01\x02\x03\x04"),
    ("tab_crlf", b"P5\r\n2\t2\r\n255\n\x01\x02\x03\x04"),
    ("maxval_15", b"P5\n2 2\n15\n\x01\x02\x03\x0f"),
    ("comment_to_eof", b"P5\n2 2\n# no newline"),
    ("hash_in_magic", b"P5#x\n2 2\n255\n\x01\x02\x03\x04"),
    ("hash_in_field", b"P5\n2#3 2\n255\n\x01\x02\x03\x04"),
    ("cut_short", b"P5\n4 4\n"),
    ("non_integer", b"P5\nx 4\n255\n"),
    ("zero_width", b"P5\n0 2\n255\n"),
    ("sixteen_bit", b"P5\n2 2\n65535\n" + bytes(8)),
    ("short_raster", b"P5\n2 2\n255\n\x01\x02\x03"),
    ("ascii_magic", b"P2\n2 2\n255\n1 2 3 4\n"),
    ("empty", b""),
)


def _array(a):
    return pickle.dumps(np.ascontiguousarray(a))


def _put_report(out, key, report):
    for name, value in dataclasses.asdict(report).items():
        if name != "wall_time":
            out["%s/report/%s" % (key, name)] = pickle.dumps(value)


def _put_factored(out, key, factors, s, report):
    out[key + "/u"] = _array(factors.u)
    out[key + "/c"] = _array(factors.c)
    out[key + "/v"] = _array(factors.v)
    out[key + "/s"] = _array(s)
    _put_report(out, key, report)


def _put_dense(out, key, l, s, report):
    out[key + "/l"] = _array(l)
    out[key + "/s"] = _array(s)
    _put_report(out, key, report)


def _put_sweep(out, key, entries, selected):
    out[key + "/selected"] = pickle.dumps(selected)
    for i, e in enumerate(entries):
        entry = "%s/%02d" % (key, i)
        out[entry + "/lam"] = pickle.dumps(e.lam)
        _put_factored(out, entry, e.factors, e.s, e.report)


def _put_solve(out, key, put, solve, *args):
    """``put(out, key, *solve(*args))``, or, if the call raises, its
    exception's type and message under ``key/raises``."""
    try:
        result = solve(*args)
    except Exception as exc:
        out[key + "/raises"] = pickle.dumps("%s: %s" % (type(exc).__name__, exc))
        return
    put(out, key, *result)


def _library(out):
    from robustpca import (SolverConfig, default_lambda_grid, init_factors, lambda_sweep,
                           make_problem, solve_fffp, solve_ialm, solve_uffp)

    for (d, n), k in LIB_CASES:
        x = make_problem(d, n, 5, 0.05, seed=7).x
        tag = "lib/%dx%d" % (d, n)
        out[tag + "/x"] = _array(x)
        start = init_factors(x, k, seed=3)
        out[tag + "/init/u"] = _array(start.u)
        out[tag + "/init/c"] = _array(start.c)
        out[tag + "/init/v"] = _array(start.v)
        grid = default_lambda_grid(x)
        out[tag + "/grid"] = _array(grid)
        for name, solve, cfg in (("fffp", solve_fffp, SolverConfig(k=k)),
                                 ("uffp", solve_uffp, SolverConfig(k=k, lam=float(grid[7])))):
            states = []
            _put_factored(out, "%s/%s" % (tag, name), *solve(x, cfg, on_iteration=states.append))
            out["%s/%s/last/theta" % (tag, name)] = _array(states[-1].theta)
            out["%s/%s/last/rho" % (tag, name)] = pickle.dumps(states[-1].rho)
            if (d, n) in FLOAT64_CASES:
                tight = dataclasses.replace(cfg, tol=1e-6)
                _put_factored(out, "%s/%s_tol1e-6" % (tag, name), *solve(x, tight))
        _put_factored(out, tag + "/uffp_lam0", *solve_uffp(x, SolverConfig(k=k, lam=0.0)))
        for name, cfg in (("ialm", SolverConfig(k=k)),
                          ("ialm_capped", SolverConfig(k=k, max_iter=3))):
            _put_dense(out, "%s/%s" % (tag, name), *solve_ialm(x, cfg))
        _put_sweep(out, tag + "/sweep", *lambda_sweep(x, SolverConfig(k=k)))
        if (d, n) in FLOAT64_CASES:
            _put_sweep(out, tag + "/sweep_tol1e-6", *lambda_sweep(x, SolverConfig(k=k, tol=1e-6)))
    (d, n), k = LIB_CASES[1]
    x = make_problem(d, n, 5, 0.05, seed=7).x.astype(np.float32)
    tag = "lib/%dx%d/float32" % (d, n)
    lam = float(default_lambda_grid(x)[7])
    _put_factored(out, tag + "/fffp", *solve_fffp(x, SolverConfig(k=k)))
    _put_factored(out, tag + "/uffp", *solve_uffp(x, SolverConfig(k=k, lam=lam)))
    _put_sweep(out, tag + "/sweep", *lambda_sweep(x, SolverConfig(k=k)))
    x = make_problem(d, n, 5, 0.05, seed=7).x
    lam = float(default_lambda_grid(x)[7])
    for j in SCALES:
        tag = "lib/%dx%d/x2^%d" % (d, n, j)
        scaled = np.ldexp(x, j)
        _put_solve(out, tag + "/fffp", _put_factored, solve_fffp, scaled, SolverConfig(k=k))
        for name, weight in (("uffp", lam), ("uffp_scaled_lam", math.ldexp(lam, j))):
            _put_solve(out, "%s/%s" % (tag, name), _put_factored, solve_uffp, scaled,
                       SolverConfig(k=k, lam=weight))
        _put_solve(out, tag + "/ialm", _put_dense, solve_ialm, scaled, SolverConfig(k=k))


def _put_frame(out, key, frame):
    out[key + "/frame"] = _array(frame)


def _pgm(out, work):
    from robustpca.dataio import load_frame_stack, read_pgm

    for name, data in PGM_FILES:
        path = work / (name + ".pgm")
        path.write_bytes(data)
        _put_solve(out, "lib/pgm/" + name, _put_frame, lambda p: (read_pgm(p),), path)
    frames = work / "frames"
    frames.mkdir()
    rng = np.random.default_rng(5)
    for j, sep in enumerate((b" ", b"\n# frame\n", b"\t#\r\n")):
        header = b"# frame %d\nP5%s5%s6%s255\n" % (j, sep, sep, sep)
        pixels = rng.integers(0, 256, (6, 5), dtype=np.uint8)
        (frames / ("f%d.pgm" % j)).write_bytes(header + pixels.tobytes())
    stack = load_frame_stack(frames)
    out["lib/pgm/stack/matrix"] = _array(stack.matrix)
    out["lib/pgm/stack/frames"] = pickle.dumps(
        (stack.frame_height, stack.frame_width, stack.frame_names))


def _float_gap(key, a, b):
    """Largest relative difference between the two sides of ``key``: per
    entry between floats or equally long lists of floats, relative to the
    largest magnitude on either side between float arrays of one shape;
    None for a file's raw bytes or any other value."""
    if key.startswith("cli/files/") and ":" not in key:
        return None
    a, b = pickle.loads(a), pickle.loads(b)  # pickled by our own subprocesses
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape or a.size == 0 or a.dtype.kind != "f" or b.dtype.kind != "f":
            return None
        scale = max(np.abs(a).max(), np.abs(b).max())
        return float(np.abs(a - b).max() / scale) if scale > 0 else 0.0
    if isinstance(a, float) and isinstance(b, float):
        a, b = [a], [b]
    if not (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
            and all(isinstance(f, float) for f in a + b)):
        return None
    return max((abs(f - g) / max(abs(f), abs(g)) for f, g in zip(a, b) if f != g),
               default=0.0)


def _json_leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "wall_time":
                yield from _json_leaves(item, "%s.%s" % (path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, "%s[%d]" % (path, i))
    else:
        yield path, pickle.dumps(value)


def _group(key):
    """``(group, leaf)`` of ``key`` for the summary: the library case or CLI run
    it belongs to, and the rest of the key without sweep entry numbers and
    with every JSON list index as ``[*]``."""
    name, _, json_leaf = key.partition(":")
    parts = name.split("/")
    if parts[0] == "cli":
        parts = parts[2:] if parts[1] == "files" else parts[1:]
        if parts[0] == "runs":  # cli/files/runs/<run>/<file>
            parts = parts[1:]
        group, rest = "cli/" + parts[0], parts[1:]
    else:
        # lib/<shape>[/float32 or /x2^<j>]/<case>
        cut = 4 if parts[2] == "float32" or parts[2].startswith("x2^") else 3
        group, rest = "/".join(parts[:cut]), parts[cut:]
        if rest and rest[0].isdigit():  # lib/<shape>/sweep/<entry>/...
            rest = rest[1:]
    leaf = "/".join(rest)
    if json_leaf:
        leaf += ":" + re.sub(r"\[\d+\]", "[*]", json_leaf)
    return group, leaf or "-"


def _cli_runs():
    problem = ["--k", "6"]
    anomaly = ["anomaly", "prob/X.ffpm", "--k", "5"]
    return (
        ("synth", ["synth", "--d", "120", "--n", "90", "--rank", "4", "--fraction", "0.05",
                   "--seed", "7", "--out", "prob"]),
        ("decompose_fffp", ["decompose", "prob/X.ffpm", "--method", "fffp", *problem,
                            "--truth", "prob/L_star.ffpm"]),
        ("decompose_ialm", ["decompose", "prob/X.ffpm", "--method", "ialm", *problem,
                            "--truth", "prob/L_star.ffpm"]),
        ("decompose_uffp", ["decompose", "prob/X.ffpm", "--method", "uffp", "--lambda", "5",
                            *problem]),
        ("decompose_sweep", ["decompose", "prob/X.ffpm", "--method", "uffp", "--lambda-sweep",
                             *problem, "--truth", "prob/L_star.ffpm"]),
        ("decompose_capped", ["decompose", "prob/X.ffpm", "--method", "fffp", *problem,
                              "--max-iter", "3"]),
        ("background_fffp", ["background", "frames", "--k", "1"]),
        ("background_ialm", ["background", "frames", "--method", "ialm", "--k", "1"]),
        ("background_sweep", ["background", "frames", "--method", "uffp", "--lambda-sweep",
                              "--k", "3"]),
        ("anomaly_top_m", anomaly + ["--top-m", "4"]),
        ("anomaly_threshold", anomaly + ["--threshold", "1.0"]),
        ("anomaly_capped", anomaly + ["--max-iter", "3"]),
        ("bench", ["bench", "--axis", "samples", "--factors", "0.5,1.0", "--base-d", "60",
                   "--base-n", "60", "--rank", "2", "--k", "2", "--iters", "2",
                   "--repeats", "1"]),
        # inputs that must be refused
        ("uffp_lambda_nan", ["decompose", "prob/X.ffpm", "--method", "uffp", "--lambda", "nan",
                             *problem]),
        ("uffp_lambda_inf", ["decompose", "prob/X.ffpm", "--method", "uffp", "--lambda", "inf",
                             *problem]),
        ("ialm_lambda_nan", ["decompose", "prob/X.ffpm", "--method", "ialm", "--lambda", "nan",
                             *problem]),
        ("fffp_sweep", ["decompose", "prob/X.ffpm", "--method", "fffp", "--lambda-sweep",
                        *problem]),
        ("ialm_sweep", ["decompose", "prob/X.ffpm", "--method", "ialm", "--lambda-sweep",
                        *problem]),
        ("uffp_lambda_sweep", ["decompose", "prob/X.ffpm", "--method", "uffp", "--lambda", "5",
                               "--lambda-sweep", *problem]),
        ("fffp_lambda", ["decompose", "prob/X.ffpm", "--method", "fffp", "--lambda", "5",
                         *problem]),
        ("background_uffp_no_weight", ["background", "frames", "--method", "uffp", "--k", "3"]),
        ("anomaly_threshold_nan", anomaly + ["--threshold", "nan"]),
        ("init_flag", ["decompose", "prob/X.ffpm", "--method", "fffp", *problem,
                       "--init", "truncated-svd"]),
    )


def _cli(out, work):
    from robustpca.cli import main
    from robustpca.dataio import write_pgm

    os.chdir(work)
    rng = np.random.default_rng(11)
    background = rng.uniform(40, 200, (24, 32))
    Path("frames").mkdir()
    for j in range(30):
        frame = background + rng.normal(0, 2, background.shape)
        frame[4 + j % 12:8 + j % 12, 5:9] = 250
        pixels = np.clip(frame, 0, 255).round().astype(np.uint8)
        write_pgm(Path("frames") / ("f%02d.pgm" % j), pixels)
    for name, argv in _cli_runs():
        run_dir = Path("runs") / name
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv if name == "synth" else argv + ["--out", str(run_dir)])
        out["cli/%s/exit" % name] = pickle.dumps(code)
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        key = "cli/files/%s" % path.as_posix()
        if path.as_posix() == "runs/bench/scaling.csv":  # size,seconds
            header, *rows = path.read_text().splitlines()
            out[key] = "\n".join([header] + [row.split(",")[0] for row in rows]).encode()
        elif path.suffix == ".json":
            payload = json.loads(path.read_text())
            if path.as_posix() == "runs/bench/fit.json":  # {"r2": ..., "rows": [[size, seconds]]}
                payload = {"rows": [row[:1] for row in payload["rows"]]}
            for leaf, value in _json_leaves(payload):
                out[key + ":" + leaf] = value
        else:
            out[key] = path.read_bytes()


def collect():
    """Run the corpus: ``{key: bytes}``."""
    out = {}
    _library(out)
    with tempfile.TemporaryDirectory() as work:
        _pgm(out, Path(work))
    with tempfile.TemporaryDirectory() as work:
        _cli(out, work)
    return out


def main(argv):
    if trees.serve(collect, argv):
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (trees.run(__file__, tree) for tree in argv[1:])
    keys = parent.keys() | change.keys()
    differ = sorted(key for key in keys if parent.get(key) != change.get(key))
    files = [{key.split(":")[0] for key in tree} for tree in (parent, change)]
    sides = (("parent", parent, change, files[1]), ("change", change, parent, files[0]))
    lines = {}  # one line per differing key, or per file that only one tree wrote
    groups = {}  # group -> [number of differing keys, {leaf: largest gap or None}]
    for key in differ:
        name = key.split(":")[0]
        gap = None
        for side, here, there, there_files in sides:
            if key in here and key not in there:
                whole = name not in there_files
                lines[("only in %s: " % side) + (name if whole else key)] = None
                break
        else:
            gap = _float_gap(key, parent[key], change[key])
            lines["differs:        " + key
                  + ("" if gap is None else "  (max rel diff %.3g)" % gap)] = None
        group, leaf = _group(key)
        tally = groups.setdefault(group, [0, {}])
        tally[0] += 1
        known = tally[1].get(leaf)
        tally[1][leaf] = gap if known is None else max(known, gap or 0.0)
    for line in lines:
        print(line)
    if groups:
        print("per group: differing keys; largest relative difference per leaf")
    for group, (count, leaves) in sorted(groups.items()):
        print("%s  %d: %s" % (group, count, ", ".join(
            "%s %s" % (leaf, "-" if gap is None else "%.3g" % gap)
            for leaf, gap in leaves.items())))
    print("%d keys compared, %d differ" % (len(keys), len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
