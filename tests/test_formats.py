import math
import struct
import zlib

import numpy as np
import pytest

from seqcontrast.errors import DataFormatError
from seqcontrast.formats import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    read_checkpoint,
    read_ply,
    read_sidecar,
    read_xyz,
    write_checkpoint,
    write_ply,
    write_sidecar,
    write_xyz,
)
from seqcontrast.geom import PointCloud


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    return PointCloud(rng.uniform(-2, 2, size=(40, 3)).astype(np.float32).astype(np.float64))


class TestXYZ:
    def test_roundtrip(self, tmp_path, cloud):
        path = tmp_path / "a.xyz"
        write_xyz(path, cloud)
        back = read_xyz(path)
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)

    def test_bad_line_reports_offset(self, tmp_path):
        """A short line, or a coordinate that parses to nan or inf, is a data
        error at the byte offset of its line; blank and comment lines count."""
        path = tmp_path / "bad.xyz"
        for bad in ("1 2", "1 nan 2", "-inf 0 0", "0 1e999 0"):
            text = f"0 0 0\n\n# a comment\n{bad}\n3 3 3\n"
            path.write_text(text)
            with pytest.raises(DataFormatError, match="coordinate") as err:
                read_xyz(path)
            assert err.value.offset == text.index(bad)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("a b c\n")
        with pytest.raises(DataFormatError):
            read_xyz(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# only a comment\n")
        with pytest.raises(DataFormatError):
            read_xyz(path)


class TestPLY:
    def test_roundtrip(self, tmp_path, cloud):
        path = tmp_path / "a.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)

    def test_roundtrip_with_colors(self, tmp_path, cloud):
        path = tmp_path / "c.ply"
        colors = np.tile([10, 20, 30], (len(cloud), 1))
        write_ply(path, cloud, colors)
        back = read_ply(path)
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(DataFormatError) as err:
            read_ply(path)
        assert err.value.offset == 0

    def test_binary_ply_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(DataFormatError):
            read_ply(path)

    @pytest.mark.parametrize("count,body", [
        ("2", "0 0 0\n1 a 2\n"),
        ("", "0 0 0\n"),
        ("-1", "0 0 0\n"),
        ("1.5", "0 0 0\n1 1 1\n"),
        ("1e3", "0 0 0\n"),
        ("3", "0 0 0\n1 1 1"),
        ("99999999999999", "0 0 0\n"),
        ("2", "0 0 0\n1 nan 2\n"),
        ("2", "0 0 0\n1 2 inf\n"),
    ], ids=["non-numeric", "no-count", "negative", "fraction", "exponent", "short-no-newline", "huge", "nan", "inf"])
    def test_malformed_vertex_data_is_a_data_format_error(self, tmp_path, count, body):
        path = tmp_path / "bad.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {count}\nproperty float x\nproperty float y\n"
            f"property float z\nend_header\n{body}"
        )
        with pytest.raises(DataFormatError):
            read_ply(path)

    def test_bad_vertex_reports_its_offset(self, tmp_path):
        path = tmp_path / "bad.ply"
        for bad in ("1 a 2", "1 nan 2"):
            text = (
                "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                f"property float z\nend_header\n0 0 0\n{bad}\n2 2 2\n"
            )
            path.write_text(text)
            with pytest.raises(DataFormatError, match="vertex 1|point 1") as err:
                read_ply(path)
            assert err.value.offset == text.index(bad)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "a.w": rng.normal(size=(3, 4)).astype(np.float32),
            "b.bias": rng.normal(size=(7,)).astype(np.float32),
            "deep.block.k": rng.normal(size=(2, 3, 5)).astype(np.float32),
            "double": rng.normal(size=(4, 2)),
            "blob": np.frombuffer(b"{}", dtype=np.uint8),
        }
        path = tmp_path / "w.4dcw"
        write_checkpoint(path, tensors)
        back = read_checkpoint(path)
        assert set(back) == set(tensors)
        for k in tensors:
            assert back[k].dtype == tensors[k].dtype
            np.testing.assert_array_equal(back[k], tensors[k])

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="int64"):
            write_checkpoint(tmp_path / "w", {"x": np.arange(3)})

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.4dcw"
        header = CHECKPOINT_MAGIC + struct.pack("<II", 1, 0)
        path.write_bytes(header + struct.pack("<I", zlib.crc32(header)))
        with pytest.raises(DataFormatError, match="version 1"):
            read_checkpoint(path)

    def test_write_is_deterministic(self, tmp_path):
        tensors = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
        write_checkpoint(tmp_path / "a", tensors)
        write_checkpoint(tmp_path / "b", tensors)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(DataFormatError) as err:
            read_checkpoint(path)
        assert err.value.offset == 0

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "w"
        write_checkpoint(path, {"x": np.ones(3, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[16] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError) as err:
            read_checkpoint(path)
        assert "checksum" in str(err.value)
        assert err.value.offset == len(raw) - 4


def tensor_record(name=b"x", tag=b"<f4", dims=(2,), payload=None):
    """One checkpoint tensor as `write_checkpoint` lays it out."""
    payload = bytes(4 * math.prod(dims)) if payload is None else payload
    return struct.pack("<I", len(name)) + name + tag + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload


# CRC-valid checkpoint bodies whose contents are malformed
MALFORMED_CHECKPOINTS = {
    "count-past-end": struct.pack("<I", 3) + tensor_record(),
    "payload-past-end": struct.pack("<I", 1) + tensor_record(dims=(1000,), payload=bytes(8)),
    "non-utf8-name": struct.pack("<I", 1) + tensor_record(name=b"\xff\xfe"),
    "rank-past-end": struct.pack("<II", 1, 1) + b"x<f4" + struct.pack("<I", 1 << 30),
    "unknown-dtype-tag": struct.pack("<I", 1) + tensor_record(tag=b"<i8", payload=bytes(16)),
    "trailing-bytes": struct.pack("<I", 1) + tensor_record() + bytes(3),
}


def write_sealed_checkpoint(path, body):
    """A checkpoint file with a correct CRC around ``body``."""
    data = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + body
    path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))


class TestMalformedCheckpoint:
    def test_fixture_layout_is_the_writers(self, tmp_path):
        write_checkpoint(tmp_path / "a", {"x": np.zeros(2, np.float32)})
        write_sealed_checkpoint(tmp_path / "b", struct.pack("<I", 1) + tensor_record())
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_is_a_data_format_error_inside_the_file(self, case, tmp_path):
        path = tmp_path / "bad.4dcw"
        write_sealed_checkpoint(path, MALFORMED_CHECKPOINTS[case])
        with pytest.raises(DataFormatError) as err:
            read_checkpoint(path)
        assert 0 <= err.value.offset <= path.stat().st_size - 4

    def test_count_past_end_stops_at_the_trailer(self, tmp_path):
        path = tmp_path / "bad.4dcw"
        write_sealed_checkpoint(path, MALFORMED_CHECKPOINTS["count-past-end"])
        with pytest.raises(DataFormatError, match="truncated checkpoint") as err:
            read_checkpoint(path)
        assert err.value.offset == path.stat().st_size - 4


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.txt"
        write_sidecar(path, {"seed": 3, "name": "room a", "scale": 1.5})
        back = read_sidecar(path)
        assert back == {"seed": "3", "name": "room a", "scale": "1.5"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a = 1\njust words\n")
        with pytest.raises(DataFormatError, match="key = value") as err:
            read_sidecar(path)
        assert err.value.offset == 6

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header\n\nsteps = 42  # a short run\nname=a b\nsteps = 7\n")
        assert read_sidecar(path) == {"steps": "7", "name": "a b"}
