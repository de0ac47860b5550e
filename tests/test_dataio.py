import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from robustpca.dataio import (
    FFPM_MAGIC,
    FormatError,
    load_frame_stack,
    read_matrix,
    read_pgm,
    write_frame,
    write_matrix,
    write_pgm,
    write_report,
)
from robustpca.solvers import SolverConfig, SolveReport


SHAPES = st.tuples(st.integers(1, 9), st.integers(1, 9))  # 1x1, tall, square and wide
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
ROUND_TRIP = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def make_pgm_bytes(pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    return b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes()


class TestRoundTripProperties:
    """Each file is rewritten by every example, so sharing tmp_path is safe."""

    @ROUND_TRIP
    @given(m=arrays(np.float64, SHAPES, elements=FINITE))
    @example(m=np.array([[-0.0]]))
    @example(m=np.array([[5e-324], [-1e-310], [-0.0], [2.2250738585072014e-308]]))
    @example(m=np.array([[-0.0, 4e-320, 1.7976931348623157e308]]))
    def test_ffpm_is_bit_exact(self, tmp_path, m):
        path = tmp_path / "m.ffpm"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == m.shape and back.tobytes() == m.tobytes()

    @ROUND_TRIP
    @given(m=arrays(np.float64, SHAPES, elements=FINITE))
    @example(m=np.array([[-0.0, 5e-324], [1e-310, -1.7976931348623157e308]]))
    def test_csv_is_exact_in_value(self, tmp_path, m):
        path = tmp_path / "m.csv"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    @ROUND_TRIP
    @given(pixels=arrays(np.uint8, SHAPES))
    def test_pgm_is_exact_for_uint8(self, tmp_path, pixels):
        path = tmp_path / "img.pgm"
        write_pgm(path, pixels)
        back = read_pgm(path)
        assert back.dtype == np.float64 and np.array_equal(back, pixels)


class TestBinaryMatrix:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 3))
        m[0, 0] = -0.0
        m[1, 1] = 1e-308
        m[2, 2] = 1e300
        path = tmp_path / "m.ffpm"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == m.shape
        assert m.tobytes() == back.tobytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ffpm"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert err.value.offset == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ffpm"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.ffpm"
        write_matrix(path, np.ones((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="payload"):
            read_matrix(path)

    def test_payload_longer_than_the_header_says(self, tmp_path):
        # the size comes from the file, not from reading to its end
        path = tmp_path / "long.ffpm"
        write_matrix(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes() + bytes(1))
        with pytest.raises(FormatError, match="payload holds 129 bytes, expected 128") as err:
            read_matrix(path)
        assert err.value.offset == 21

    def test_payload_is_sized_before_it_is_allocated(self, tmp_path):
        # a header may claim 2**40 entries, 8 TB; the file's 8 bytes refuse it
        path = tmp_path / "claims.ffpm"
        path.write_bytes(FFPM_MAGIC + bytes([1]) + struct.pack("<QQ", 2**20, 2**20) + bytes(8))
        with pytest.raises(FormatError, match="payload holds 8 bytes") as err:
            read_matrix(path)
        assert err.value.offset == 21

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_fills_one_array(self, tmp_path):
        # the header and the file's size are checked first, then the entries
        # are read into the array that is returned: no bytes object, no slice
        # of it and no converted copy beside it
        m = np.random.default_rng(4).standard_normal((300, 200))
        path = tmp_path / "m.ffpm"
        write_matrix(path, m)
        back, peak = self.traced_peak(read_matrix, path)
        assert back.dtype == np.float64 and back.tobytes() == m.tobytes()
        assert back.flags.aligned and back.flags.c_contiguous and back.flags.writeable
        assert peak <= 1.1 * m.nbytes

    def test_write_adds_no_full_size_copy(self, tmp_path):
        # the entries go to the file from the matrix's own buffer; the finite
        # check's boolean mask, an eighth of the matrix, is the largest temporary
        m = np.random.default_rng(5).standard_normal((300, 200))
        path = tmp_path / "m.ffpm"
        _, peak = self.traced_peak(write_matrix, path, m)
        assert peak <= 0.25 * m.nbytes
        assert np.array_equal(read_matrix(path), m)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.ffpm"
        header = FFPM_MAGIC + bytes([1]) + struct.pack("<QQ", 2**61, 2**61)
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(FormatError, match="overflow") as err:
            read_matrix(path)
        assert err.value.offset == 5

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.ffpm"
        path.write_bytes(FFPM_MAGIC + bytes([1]) + struct.pack("<QQ", 0, 3))
        with pytest.raises(FormatError, match="positive"):
            read_matrix(path)

    @pytest.mark.parametrize("data, message, offset", [
        (FFPM_MAGIC, "truncated before version byte", 4),
        (FFPM_MAGIC + bytes([1]) + bytes(8), "truncated dimension header", 13),
    ], ids=["no-version", "half-dimensions"])
    def test_truncated_header(self, tmp_path, data, message, offset):
        path = tmp_path / "short.ffpm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message) as err:
            read_matrix(path)
        assert err.value.offset == offset

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.ffpm"
        path.write_bytes(FFPM_MAGIC + bytes([9]) + struct.pack("<QQ", 1, 1) + bytes(8))
        with pytest.raises(FormatError, match="version") as err:
            read_matrix(path)
        assert err.value.offset == 4


class TestCsvMatrix:
    def test_round_trip_exact_values(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-30, 30, (5, 4))
        path = tmp_path / "m.csv"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(FormatError, match="row 1, column 1"):
            read_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(FormatError, match="row 1"):
            read_matrix(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_matrix(path)


class TestPgm:
    def test_round_trip(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, pixels)
        assert np.array_equal(read_pgm(path), pixels.astype(np.float64))

    @pytest.mark.parametrize("header", [
        b"P5 # comment\n# another\n2 2\n255\n",
        b"# made by hand\nP5 2 2 255\n",
        b"P5\r\n2\t2\r\n255\n",
        b"P5\n2 2\n15\n",
    ], ids=["between-fields", "before-magic", "tab-crlf", "maxval-15"])
    def test_comments_in_header(self, tmp_path, header):
        path = tmp_path / "c.pgm"
        path.write_bytes(header + bytes([1, 2, 3, 4]))
        assert np.array_equal(read_pgm(path), [[1, 2], [3, 4]])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FormatError, match="P5"):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="8-bit"):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="raster"):
            read_pgm(path)

    @pytest.mark.parametrize("header, message", [
        (b"P5\n4 4\n", "truncated header"),
        (b"P5\nx 4\n255\n", "non-integer header field"),
        (b"P5\n0 2\n255\n", "dimensions must be positive"),
        (b"P5\n2 2\n# no newline", "truncated header"),  # a comment runs to the end
        (b"P5#x\n2 2\n255\n", "magic P5 missing"),  # a field runs to whitespace
        (b"P5\n2#3 2\n255\n", "non-integer header field"),
        # fields Python's int() takes but a graymap does not: through int()
        # three would read as images and "-2" would fail as a dimension
        (b"P5\n1_0 1\n255\n" + bytes(10), "non-integer header field"),
        (b"P5\n2 +1\n255\n" + bytes(2), "non-integer header field"),
        (b"P5\n2 -2\n255\n", "non-integer header field"),
        (b"P5\n2 2\n+255\n" + bytes(4), "non-integer header field"),
    ], ids=["cut-short", "non-integer", "zero-width", "comment-to-eof", "hash-in-magic",
            "hash-in-field", "underscore", "plus-sign", "minus-sign", "plus-maxval"])
    def test_bad_header(self, tmp_path, header, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header)
        with pytest.raises(FormatError, match=message):
            read_pgm(path)

    def test_write_rejects_a_one_dimensional_frame(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_pgm(tmp_path / "row.pgm", np.arange(4))


class TestFrameStack:
    def test_single_frame_vectorization(self, tmp_path):
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 4)
        (tmp_path / "f0.pgm").write_bytes(make_pgm_bytes(pixels))
        stack = load_frame_stack(tmp_path, 1)
        assert stack.matrix.shape == (16, 1)
        assert stack.frame_height == stack.frame_width == 4
        # float32 holds every gray level exactly
        assert stack.matrix.dtype == np.float32
        assert np.array_equal(stack.matrix[:, 0], pixels.ravel(order="F"))
        # column-major: the first frame_height entries are the first pixel column
        assert np.array_equal(stack.matrix[:4, 0], pixels[:, 0])

    def test_downsample_keeps_every_second_pixel(self, tmp_path):
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 4)
        (tmp_path / "f0.pgm").write_bytes(make_pgm_bytes(pixels))
        stack = load_frame_stack(tmp_path, 2)
        assert stack.matrix.shape == (4, 1)
        want = pixels[::2, ::2].ravel(order="F")
        assert np.array_equal(stack.matrix[:, 0], want)

    def test_frames_sorted_lexicographically(self, tmp_path):
        for name, value in [("b.pgm", 2), ("a.pgm", 1), ("c.pgm", 3)]:
            (tmp_path / name).write_bytes(make_pgm_bytes(np.full((2, 2), value)))
        stack = load_frame_stack(tmp_path)
        assert stack.frame_names == ["a.pgm", "b.pgm", "c.pgm"]
        assert np.array_equal(stack.matrix[0], [1, 2, 3])

    def test_write_frame_inverts_loading(self, tmp_path):
        rng = np.random.default_rng(2)
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for j in range(3):
            pixels = rng.integers(0, 256, (5, 4), dtype=np.uint8)
            (frames_dir / ("f%d.pgm" % j)).write_bytes(make_pgm_bytes(pixels))
        stack = load_frame_stack(frames_dir, 1)
        for j, name in enumerate(stack.frame_names):
            out = tmp_path / ("copy_%s" % name)
            write_frame(stack.matrix[:, j], stack.frame_height, stack.frame_width, out)
            assert out.read_bytes() == (frames_dir / name).read_bytes()

    def test_mixed_sizes_name_offender(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(make_pgm_bytes(np.zeros((2, 2))))
        (tmp_path / "b.pgm").write_bytes(make_pgm_bytes(np.zeros((3, 2))))
        with pytest.raises(ValueError, match="b.pgm"):
            load_frame_stack(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .pgm frames"):
            load_frame_stack(tmp_path)

    def test_bad_factor_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_frame_stack(tmp_path, 0)


class TestWriteFrame:
    def test_constant_column_gives_uniform_image(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_frame(np.full(6, 77.0), 2, 3, path)
        assert np.array_equal(read_pgm(path), np.full((2, 3), 77.0))

    def test_out_of_range_clamps_with_warning(self, tmp_path):
        path = tmp_path / "clip.pgm"
        with pytest.warns(UserWarning, match="clamped"):
            write_frame(np.array([-20.0, 100.0, 300.0, 40.0]), 2, 2, path)
        back = read_pgm(path)
        assert back.min() == 0.0 and back.max() == 255.0

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_frame(np.ones(5), 2, 3, tmp_path / "x.pgm")


class TestReportJson:
    def test_report_and_config_round_trip(self, tmp_path):
        report = SolveReport(
            iterations=3,
            svd_count=6,
            rho0=0.25,
            per_iter_residual=[0.5, 0.1, 0.01],
            per_iter_change=[0.9, 0.05, 0.001],
            final_rank=2,
            sparsity_ratio=0.25,
            sparse_l1=1.5,
            final_residual=0.01,
            wall_time=0.125,
            final_objective=1.5,
            converged=True,
            buffer_dtype="float32",
        )
        cfg = SolverConfig(k=2, lam=0.5)
        path = tmp_path / "report.json"
        write_report(path, report, config=cfg, extra={"note": [1, 2]})
        payload = json.loads(path.read_text())
        assert payload["report"]["iterations"] == 3
        assert payload["report"]["per_iter_residual"] == [0.5, 0.1, 0.01]
        assert payload["report"]["per_iter_change"] == [0.9, 0.05, 0.001]
        assert payload["report"]["converged"] is True
        assert payload["report"]["rho0"] == 0.25
        assert payload["report"]["buffer_dtype"] == "float32"
        assert payload["config"]["k"] == 2
        assert payload["config"]["lam"] == 0.5
        assert payload["note"] == [1, 2]

    def test_numpy_values_become_plain_json(self, tmp_path):
        path = tmp_path / "report.json"
        extra = {"half": np.float32(0.5), "steps": np.arange(3)}
        write_report(path, None, config=SolverConfig(k=np.int64(3)), extra=extra)
        payload = json.loads(path.read_text())
        assert payload["config"]["k"] == 3 and type(payload["config"]["k"]) is int
        assert payload["half"] == 0.5 and payload["steps"] == [0, 1, 2]

    def test_unknown_value_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            write_report(tmp_path / "report.json", None, extra={"bad": object()})
