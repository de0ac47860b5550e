"""Matrix persistence, grayscale frame stacks, and report serialization.

Two matrix formats are supported, chosen by file extension:

* ``.csv`` -- text, one matrix row per line, comma separated, 17
  significant digits (round-trips float64 values exactly in value).
* anything else -- the FFPM binary container: magic ``FFPM``, one version
  byte (1), rows and cols as little-endian unsigned 64-bit integers, then
  rows*cols little-endian IEEE float64 entries in row-major order.
  Round trips are bit-exact.  A write streams the matrix's own buffer
  after the header, and a read checks the header and the file's size
  before it fills one float64 array from the file, so neither holds a
  second full-size copy of the matrix.

Images are binary 8-bit grayscale portable graymaps (P5) only; frames are
vectorized column-major, one column per frame.  Their integer levels set
the tol a stack is solved at (:meth:`FrameStack.stop_tol`).
"""

import json
import math
import os
import re
import struct
import warnings
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .linalg import _as_matrix

__all__ = [
    "FormatError",
    "FrameStack",
    "write_matrix",
    "read_matrix",
    "read_pgm",
    "write_pgm",
    "load_frame_stack",
    "write_frame",
    "write_report",
]

FFPM_MAGIC = b"FFPM"
FFPM_VERSION = 1
_FFPM_HEADER = struct.Struct("<QQ")
_FFPM_PAYLOAD = len(FFPM_MAGIC) + 1 + _FFPM_HEADER.size  # offset of the first entry
_MAX_ENTRIES = 2**60  # rows*cols beyond this cannot be addressed as bytes
# one graymap header field: whitespace and comments (to the end of the line),
# then the field's bytes, up to the next whitespace byte; empty at the end
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


class FormatError(ValueError):
    """Malformed file content. ``offset`` is the byte position for binary formats."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class FrameStack:
    """Image sequence as a matrix: one column-major vectorized frame per column.

    ``frame_height * frame_width`` equals the row count of ``matrix`` and
    ``frame_names`` lists the source files in column order (unique,
    lexicographically sorted).
    """

    matrix: np.ndarray
    frame_height: int
    frame_width: int
    frame_names: list[str]

    def stop_tol(self, tol):
        """The relative-residual tol to solve ``matrix`` at: ``tol``, raised
        to the rounding floor of 8-bit gray levels, ``sqrt(d*n/12)/||X||_F``.

        Every frame is rounded to integer levels, an error of variance 1/12
        per entry, so a residual below the floor only moves rounding noise
        into S (Stable PCP, Zhou, Li, Wright, Candes & Ma 2010, stops at the
        known noise level the same way).  A floor of 1 or more, as on an
        all-zero stack, leaves ``tol`` as given, since a tol must lie in
        (0, 1); the solver then refuses an all-zero stack itself.
        """
        # a dot of the float32 stack with itself: no (d, n) temporary
        norm = float(np.linalg.norm(self.matrix))
        floor = math.sqrt(self.matrix.size / 12.0) / norm if norm else math.inf
        return max(tol, floor) if floor < 1.0 else tol


def write_matrix(path, m):
    """Write ``m`` to ``path``; CSV when the extension is .csv, FFPM binary otherwise."""
    m = _as_matrix(m, "m")
    path = Path(path)
    if path.suffix.lower() == ".csv":
        lines = [",".join("%.17g" % value for value in row) for row in m]
        path.write_text("\n".join(lines) + "\n")
    else:
        entries = np.ascontiguousarray(m, dtype="<f8")  # m itself on a little-endian host
        with path.open("wb") as f:
            f.write(FFPM_MAGIC + bytes([FFPM_VERSION]) + _FFPM_HEADER.pack(*m.shape))
            f.write(entries.data)


def read_matrix(path):
    """Inverse of :func:`write_matrix`, dispatching on the extension."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    return _read_ffpm(path)


def _read_ffpm(path):
    with Path(path).open("rb") as f:
        data = f.read(_FFPM_PAYLOAD)
        if len(data) < len(FFPM_MAGIC) or data[: len(FFPM_MAGIC)] != FFPM_MAGIC:
            raise FormatError("bad magic, expected %r" % FFPM_MAGIC, offset=0)
        if len(data) < 5:
            raise FormatError("truncated before version byte", offset=len(data))
        if data[4] != FFPM_VERSION:
            raise FormatError("unsupported version %d" % data[4], offset=4)
        if len(data) < _FFPM_PAYLOAD:
            raise FormatError("truncated dimension header", offset=len(data))
        rows, cols = _FFPM_HEADER.unpack_from(data, 5)
        if rows == 0 or cols == 0:
            raise FormatError("dimensions must be positive, got %dx%d" % (rows, cols), offset=5)
        if rows * cols > _MAX_ENTRIES:
            raise FormatError("dimension overflow: %dx%d" % (rows, cols), offset=5)
        # the file's size is checked before the array is made, since the
        # header may claim any size; the read then fills that one array
        payload = os.fstat(f.fileno()).st_size - _FFPM_PAYLOAD
        expected = rows * cols * 8
        if payload == expected:
            entries = np.empty((rows, cols), dtype="<f8")
            payload = f.readinto(entries)
        if payload != expected:
            raise FormatError("payload holds %d bytes, expected %d" % (payload, expected),
                              offset=_FFPM_PAYLOAD)
    return entries.astype(np.float64, copy=False)  # a copy only on a big-endian host


def _read_csv(path):
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty CSV file")
    rows = []
    width = None
    for i, line in enumerate(lines):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError("row %d has %d cells, expected %d" % (i, len(cells), width))
        row = []
        for j, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise FormatError("non-numeric cell at row %d, column %d: %r" % (i, j, cell)) from None
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def read_pgm(path):
    """Read a binary (P5) 8-bit graymap into a (height, width) float64 array."""
    data = Path(path).read_bytes()
    fields, pos = [], 0
    for _ in range(4):  # magic, width, height, maxval
        field = _PGM_FIELD.match(data, pos)
        pos = field.end()
        if pos == field.start(1):
            raise FormatError("truncated header", offset=pos)
        if not fields and field[1] != b"P5":
            raise FormatError("not a binary graymap (magic P5 missing)", offset=0)
        fields.append(field[1])
    # plain ASCII digits only: int() would also take "+1", "-2" and "1_0"
    if not all(f.isdigit() for f in fields[1:]):
        raise FormatError("non-integer header field", offset=pos)
    width, height, maxval = map(int, fields[1:])
    if width <= 0 or height <= 0:
        raise FormatError("dimensions must be positive, got %dx%d" % (width, height), offset=pos)
    if not 0 < maxval <= 255:
        raise FormatError("only 8-bit graymaps supported, maxval %d" % maxval, offset=pos)
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise FormatError(
            "raster holds %d bytes, expected %d" % (len(raster), width * height), offset=pos
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).astype(np.float64)


def write_pgm(path, frame):
    """Write a (height, width) uint8 array as a binary (P5) graymap."""
    frame = np.asarray(frame, dtype=np.uint8)
    if frame.ndim != 2 or frame.size == 0:
        raise ValueError("frame must be a nonempty 2-D array, got shape %r" % (frame.shape,))
    height, width = frame.shape
    header = b"P5\n%d %d\n255\n" % (width, height)
    Path(path).write_bytes(header + frame.tobytes())


def load_frame_stack(dir_path, downsample_factor=1):
    """Stack every .pgm frame in a directory into a matrix, one column per frame.

    Frames are taken in lexicographic filename order and must share one
    size.  A downsample factor f keeps every f-th pixel along each axis
    (decimation, no averaging).  Columns are the column-major vectorization
    of each (possibly downsampled) frame, so :func:`write_frame` inverts
    the mapping.  The matrix is float32, which holds every 8-bit gray level
    exactly, so the factored solvers run on it in float32.  Each frame is
    cast as it is read, so no float64 copy of the whole stack is made.
    """
    if downsample_factor < 1 or int(downsample_factor) != downsample_factor:
        raise ValueError("downsample_factor must be a positive integer, got %r" % downsample_factor)
    factor = int(downsample_factor)
    directory = Path(dir_path)
    names = sorted(p.name for p in directory.iterdir() if p.suffix.lower() == ".pgm")
    if not names:
        raise ValueError("no .pgm frames found in %s" % directory)
    columns = []
    shape = None
    for name in names:
        frame = read_pgm(directory / name)[::factor, ::factor]
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise ValueError(
                "frame %s has size %dx%d after downsampling, expected %dx%d"
                % (name, frame.shape[0], frame.shape[1], shape[0], shape[1])
            )
        columns.append(frame.ravel(order="F").astype(np.float32))
    return FrameStack(
        matrix=np.column_stack(columns),
        frame_height=shape[0],
        frame_width=shape[1],
        frame_names=names,
    )


def write_frame(column, frame_height, frame_width, path):
    """Render one stack column back into a graymap image.

    Values are rounded to the nearest gray level and clamped to [0, 255];
    a warning is emitted when clamping actually truncates.  Inverse of the
    vectorization used by :func:`load_frame_stack`.
    """
    column = np.asarray(column, dtype=np.float64).ravel()
    if column.size != frame_height * frame_width:
        raise ValueError(
            "column has %d entries, expected %d x %d = %d"
            % (column.size, frame_height, frame_width, frame_height * frame_width)
        )
    frame = np.rint(column.reshape((frame_height, frame_width), order="F"))
    if frame.min() < 0.0 or frame.max() > 255.0:
        warnings.warn("frame values outside [0, 255] were clamped", stacklevel=2)
        frame = np.clip(frame, 0.0, 255.0)
    write_pgm(path, frame.astype(np.uint8))


def _plain(obj):
    """``json.dumps``'s ``default``: the JSON value of a dataclass or a numpy
    array or scalar; anything else is not serializable."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def write_report(path, report, config=None, metrics=None, extra=None):
    """Serialize a solve report (plus the config that produced it) to JSON."""
    payload = {"report": report}
    if config is not None:
        payload["config"] = config
    if metrics is not None:
        payload["metrics"] = metrics
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, default=_plain) + "\n")
