"""File formats: ASCII XYZ/PLY point clouds (float32 precision); the sealed
binary containers (`seal`, `unseal`) of ".4dc" sequences and ".4dcw" weight
checkpoints; and the ``key = value`` text of sidecars and config files.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .geom import PointCloud

CHECKPOINT_MAGIC = b"4DCW"
CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPES = ("<f4", "<f8", "|u1")


# ---------------------------------------------------------------------------
# ASCII point clouds


def finite_points(path, pts: np.ndarray, offset_of) -> np.ndarray:
    """``pts``, or `DataFormatError` at byte ``offset_of(k)`` for the first non-finite point k."""
    if not np.isfinite(pts).all():
        k = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise DataFormatError(f"{path}: non-finite coordinate in point {k}", offset_of(k))
    return pts


def read_xyz(path: str | Path) -> PointCloud:
    """Read an ASCII XYZ file: one "x y z" triple per line."""

    def at(k: int) -> int:  # the byte offset of point k's line, found only for an error
        offset = 0
        with open(path, "rb") as f:
            for raw in f:
                line = raw.decode("ascii", errors="replace").strip()
                k -= bool(line and not line.startswith("#"))
                if k < 0:
                    return offset
                offset += len(raw)

    pts = []
    with open(path, "rb") as f:
        for raw in f:
            line = raw.decode("ascii", errors="replace").strip()
            if line and not line.startswith("#"):
                parts = line.split()
                if len(parts) < 3:
                    raise DataFormatError(f"{path}: expected 3 coordinates, got {len(parts)}", at(len(pts)))
                try:
                    pts.append([float(parts[0]), float(parts[1]), float(parts[2])])
                except ValueError:
                    raise DataFormatError(f"{path}: non-numeric coordinate", at(len(pts))) from None
    if not pts:
        raise DataFormatError(f"{path}: no points", 0)
    return PointCloud(finite_points(path, np.array(pts, dtype=np.float64), at))


def write_xyz(path: str | Path, cloud: PointCloud) -> None:
    pts = cloud.points.astype(np.float32)
    with open(path, "w") as f:
        for p in pts:
            f.write(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f}\n")


def read_ply(path: str | Path) -> PointCloud:
    """Read vertex positions from an ASCII PLY file; other elements ignored."""
    with open(path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n")
    if not lines or lines[0].strip() != b"ply":
        raise DataFormatError(f"{path}: missing 'ply' magic", 0)

    def at(i: int) -> int:  # the byte offset of line i, found only for an error
        return sum(len(line) + 1 for line in lines[:i])

    n_vertex = None
    props: list[str] = []
    in_vertex = False
    header_end = None
    for i, raw in enumerate(lines):
        line = raw.strip().decode("ascii", errors="replace")
        if line.startswith("format"):
            if "ascii" not in line:
                raise DataFormatError(f"{path}: only ASCII PLY supported", at(i))
        elif line.startswith("element"):
            parts = line.split()
            in_vertex = parts[1:2] == ["vertex"]
            if in_vertex:
                if len(parts) != 3 or not parts[2].isdigit():
                    raise DataFormatError(f"{path}: vertex count is not a non-negative integer: {line!r}", at(i))
                n_vertex = int(parts[2])
        elif line.startswith("property") and in_vertex:
            props.append(line.split()[-1])
        elif line == "end_header":
            header_end = i
            break
    if header_end is None or n_vertex is None:
        raise DataFormatError(f"{path}: incomplete PLY header", len(data) if header_end is None else at(i))
    try:
        ix, iy, iz = props.index("x"), props.index("y"), props.index("z")
    except ValueError:
        raise DataFormatError(f"{path}: vertex element lacks x/y/z", at(i)) from None

    first = header_end + 1  # the first vertex line
    body = lines[first : first + n_vertex]
    if len(body) < n_vertex:
        raise DataFormatError(f"{path}: {n_vertex} vertices declared, {len(body)} lines follow the header", len(data))
    pts = np.empty((n_vertex, 3), dtype=np.float64)
    for k, raw in enumerate(body):
        parts = raw.split()
        if len(parts) < len(props):
            raise DataFormatError(f"{path}: truncated vertex {k}", at(first + k))
        try:
            pts[k] = [float(parts[ix]), float(parts[iy]), float(parts[iz])]
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric value in vertex {k}", at(first + k)) from None
    return PointCloud(finite_points(path, pts, lambda k: at(first + k)))


def write_ply(path: str | Path, cloud: PointCloud, colors: np.ndarray | None = None) -> None:
    """Write an ASCII PLY of vertex positions, optionally with uchar colors."""
    pts = cloud.points.astype(np.float32)
    rgb = "" if colors is None else "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    with open(path, "w") as f:
        f.write(f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n")
        f.write(f"property float x\nproperty float y\nproperty float z\n{rgb}end_header\n")
        for k, p in enumerate(pts):
            c = "" if colors is None else f" {int(colors[k][0])} {int(colors[k][1])} {int(colors[k][2])}"
            f.write(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f}{c}\n")


def read_point_cloud(path: str | Path) -> PointCloud:
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return read_ply(path)
    return read_xyz(path)


# ---------------------------------------------------------------------------
# Sealed binary containers


def seal(magic: bytes, version: int, body: list) -> bytes:
    """``magic``, the u32 ``version``, the little-endian ``body`` buffers (each
    copied once), then the u32 CRC32 of everything before it."""
    head = magic + struct.pack("<I", version)
    crc = zlib.crc32(head)
    for part in body:
        crc = zlib.crc32(part, crc)
    return b"".join([head, *body, struct.pack("<I", crc)])


class Cursor:
    """Reads through a sealed body: a read into the CRC trailer raises
    `DataFormatError` with the byte offset, and `close` rejects unread bytes."""

    def __init__(self, path, kind: str, data: bytes, offset: int):
        self.path, self.kind, self.data, self.offset, self.end = path, kind, data, offset, len(data) - 4

    def _advance(self, nbytes: int) -> int:
        off = self.offset
        if nbytes > self.end - off:
            raise DataFormatError(f"{self.path}: truncated {self.kind}: {nbytes} bytes needed, {self.end - off} left", off)
        self.offset = off + nbytes
        return off

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """``count`` items of ``dtype``, read-only, sharing the file's bytes."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.data, dtype, count, self._advance(count * dtype.itemsize))

    def text(self, nbytes: int) -> str:
        off = self._advance(nbytes)
        try:
            return self.data[off : off + nbytes].decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(f"{self.path}: {self.kind} text is not UTF-8", off) from None

    def close(self) -> None:
        if self.offset != self.end:
            raise DataFormatError(f"{self.path}: trailing bytes in {self.kind}", self.offset)


def unseal(path: str | Path, magic: bytes, version: int, kind: str) -> Cursor:
    """Check the magic, CRC and version of a container written by `seal`;
    errors name its ``kind``. Returns a `Cursor` at the start of the body."""
    data = Path(path).read_bytes()
    cur = Cursor(path, kind, data, len(magic) + 4)
    if cur.end < cur.offset or data[: len(magic)] != magic:
        raise DataFormatError(f"{path}: bad {kind} magic", 0)
    if zlib.crc32(memoryview(data)[: cur.end]) != struct.unpack_from("<I", data, cur.end)[0]:
        raise DataFormatError(f"{path}: checksum mismatch", cur.end)
    (found,) = struct.unpack_from("<I", data, len(magic))
    if found != version:
        raise DataFormatError(f"{path}: unsupported {kind} version {found}", len(magic))
    return cur


# ---------------------------------------------------------------------------
# Weight checkpoints ("4DCW")


def write_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Seal the tensor count and the named tensors row-major, each in its own
    dtype. Per tensor: the UTF-8 name, a 3-byte numpy dtype tag (one of
    `CHECKPOINT_DTYPES`), the rank, the dimensions and the payload."""
    body = [struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        a = np.asarray(arr)
        tag = a.dtype.newbyteorder("<").str
        if tag not in CHECKPOINT_DTYPES:
            raise ValueError(f"tensor {name!r}: unsupported dtype {a.dtype}")
        a = np.ascontiguousarray(a, dtype=tag)
        body += [struct.pack("<I", len(nb)), nb, tag.encode("ascii"), struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape), a]
    Path(path).write_bytes(seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, body))


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    cur = unseal(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    out: dict[str, np.ndarray] = {}
    for _ in range(cur.unpack("<I")[0]):
        name = cur.text(cur.unpack("<I")[0])
        tag = cur.text(3)
        if tag not in CHECKPOINT_DTYPES:
            raise DataFormatError(f"{path}: tensor {name!r} has unknown dtype tag {tag!r}", cur.offset - 3)
        (rank,) = cur.unpack("<I")
        dims = cur.unpack(f"<{rank}I")
        out[name] = cur.array(tag, math.prod(dims)).reshape(dims).copy()
    cur.close()
    return out


# ---------------------------------------------------------------------------
# key = value text (sidecars and config files)


def write_sidecar(path: str | Path, params: dict[str, object], header: str = "") -> None:
    """``header`` (``#`` comment lines, if any), then ``key = value`` lines."""
    Path(path).write_text(header + "".join(f"{key} = {value}\n" for key, value in params.items()))


def read_sidecar(path: str | Path) -> dict[str, str]:
    """``key = value`` lines; ``#`` starts a comment and a later key wins."""
    out: dict[str, str] = {}
    offset = 0
    with open(path, "rb") as f:
        for raw in f:
            line = raw.decode("utf-8", errors="replace").split("#", 1)[0].strip()
            if line:
                if "=" not in line:
                    raise DataFormatError(f"{path}: expected 'key = value'", offset)
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
            offset += len(raw)
    return out
