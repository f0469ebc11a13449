"""File I/O: ASCII XYZ/PLY point clouds, binary weight checkpoints, sidecars.

Point-cloud files carry float32-precision coordinates; binary containers are
little-endian with a trailing CRC32 of everything before the checksum field.
"""

from __future__ import annotations

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


def read_xyz(path: str | Path) -> PointCloud:
    """Read an ASCII XYZ file: one "x y z" triple per line."""
    pts = []
    offset = 0
    with open(path, "rb") as f:
        for raw in f:
            line = raw.decode("ascii", errors="replace").strip()
            if line and not line.startswith("#"):
                parts = line.split()
                if len(parts) < 3:
                    raise DataFormatError(f"{path}: expected 3 coordinates, got {len(parts)}", offset)
                try:
                    pts.append([float(parts[0]), float(parts[1]), float(parts[2])])
                except ValueError:
                    raise DataFormatError(f"{path}: non-numeric coordinate", offset) from None
            offset += len(raw)
    if not pts:
        raise DataFormatError(f"{path}: no points", 0)
    return PointCloud(np.array(pts, dtype=np.float64))


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

    n_vertex = None
    props: list[str] = []
    in_vertex = False
    header_end = None
    offset = 0
    for i, raw in enumerate(lines):
        line = raw.strip().decode("ascii", errors="replace")
        if line.startswith("format"):
            if "ascii" not in line:
                raise DataFormatError(f"{path}: only ASCII PLY supported", offset)
        elif line.startswith("element"):
            parts = line.split()
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                n_vertex = int(parts[2])
        elif line.startswith("property") and in_vertex:
            props.append(line.split()[-1])
        elif line == "end_header":
            header_end = i
            break
        offset += len(raw) + 1
    if header_end is None or n_vertex is None:
        raise DataFormatError(f"{path}: incomplete PLY header", offset)
    try:
        ix, iy, iz = props.index("x"), props.index("y"), props.index("z")
    except ValueError:
        raise DataFormatError(f"{path}: vertex element lacks x/y/z", offset) from None

    pts = np.empty((n_vertex, 3), dtype=np.float64)
    for k in range(n_vertex):
        raw = lines[header_end + 1 + k]
        parts = raw.split()
        if len(parts) < len(props):
            raise DataFormatError(f"{path}: truncated vertex {k}", offset)
        pts[k] = [float(parts[ix]), float(parts[iy]), float(parts[iz])]
        offset += len(raw) + 1
    return PointCloud(pts)


def write_ply(path: str | Path, cloud: PointCloud, colors: np.ndarray | None = None) -> None:
    """Write an ASCII PLY of vertex positions, optionally with uchar colors."""
    pts = cloud.points.astype(np.float32)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        if colors is not None:
            f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write("end_header\n")
        if colors is None:
            for p in pts:
                f.write(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f}\n")
        else:
            for p, c in zip(pts, colors):
                f.write(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f} {int(c[0])} {int(c[1])} {int(c[2])}\n")


def read_point_cloud(path: str | Path) -> PointCloud:
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return read_ply(path)
    return read_xyz(path)


# ---------------------------------------------------------------------------
# Weight checkpoints ("4DCW")


def write_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Serialize named tensors row-major, each in its own dtype.

    Per tensor: the UTF-8 name, a 3-byte numpy dtype tag (one of
    `CHECKPOINT_DTYPES`), the rank, the dimensions and the payload.
    """
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<II", CHECKPOINT_VERSION, len(tensors))
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        a = np.asarray(arr)
        tag = a.dtype.newbyteorder("<").str
        if tag not in CHECKPOINT_DTYPES:
            raise ValueError(f"tensor {name!r}: unsupported dtype {a.dtype}")
        a = np.ascontiguousarray(a, dtype=tag)
        buf += struct.pack("<I", len(nb)) + nb + tag.encode("ascii")
        buf += struct.pack("<I", a.ndim)
        buf += struct.pack(f"<{a.ndim}I", *a.shape)
        buf += a.tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    Path(path).write_bytes(bytes(buf))


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad checkpoint magic", 0)
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise DataFormatError(f"{path}: checksum mismatch", len(data) - 4)
    version, count = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}", 4)
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", data, off)
        off += 4
        name = data[off : off + nlen].decode("utf-8")
        off += nlen
        tag = data[off : off + 3].decode("ascii", errors="replace")
        if tag not in CHECKPOINT_DTYPES:
            raise DataFormatError(f"{path}: tensor {name!r} has unknown dtype tag {tag!r}", off)
        off += 3
        (rank,) = struct.unpack_from("<I", data, off)
        off += 4
        dims = struct.unpack_from(f"<{rank}I", data, off)
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(data, dtype=tag, count=n, offset=off).reshape(dims).copy()
        off += arr.nbytes
        out[name] = arr
    if off != len(data) - 4:
        raise DataFormatError(f"{path}: trailing bytes in checkpoint", off)
    return out


# ---------------------------------------------------------------------------
# key = value sidecars


def write_sidecar(path: str | Path, params: dict[str, object]) -> None:
    with open(path, "w") as f:
        for key in params:
            f.write(f"{key} = {params[key]}\n")


def read_sidecar(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    offset = 0
    with open(path, "rb") as f:
        for raw in f:
            line = raw.decode("utf-8").strip()
            if line and not line.startswith("#"):
                if "=" not in line:
                    raise DataFormatError(f"{path}: expected 'key = value'", offset)
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
            offset += len(raw)
    return out
