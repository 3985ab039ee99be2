"""Bit-exact readers and writers for the on-disk artifacts.

Formats
-------
- Point clouds: ``.bin`` of little-endian float32 (x, y, z, intensity) quads.
- Labels: ``.label`` of little-endian uint32 words; low 16 bits semantic
  class, high 16 bits instance id.  Instance bits are preserved on read
  (side channel) and written as zero: this toolkit emits semantic
  pseudo-labels only.
- Calibration: text lines ``P2: <12 floats>`` / ``Tr: <12 floats>``.
- Tensors: self-describing "PTNS" container, header = magic ``PTNS``,
  version u8 (=1), dtype u8, ndim u32, dims u32 x ndim, all little-endian,
  followed by the row-major payload.  dtype codes: 0 = float32,
  1 = uint8 (masks), 2 = uint32 (index maps).
- Class map: CSV lines ``id,name`` with ids dense from 0 and id 0 named
  "unlabeled".  Remap table: CSV lines ``raw_id,train_id``.

Every reader/writer pair round-trips byte-exactly on valid input; every
malformation maps to a typed error from :mod:`seglift.errors`.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import CalibrationRig, ClassMap, PointCloud
from .errors import (
    BadMagic,
    DimMismatch,
    LengthError,
    ParseError,
    SizeMismatch,
    UnknownClassError,
    UnsupportedVersion,
)

PTNS_MAGIC = b"PTNS"
PTNS_VERSION = 1

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<u1"), 2: np.dtype("<u4")}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}
_MAX_NDIM = 32  # numpy's limit before 2.0

_CLOUD_RECORD = 16  # 4 x float32
_LABEL_RECORD = 4   # 1 x uint32


@contextmanager
def atomic_write(path):
    """Write to a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Point clouds


def read_cloud_bin(path) -> PointCloud:
    """Read a float32 x,y,z,intensity quad file; empty file -> empty cloud."""
    data = Path(path).read_bytes()
    if len(data) % _CLOUD_RECORD:
        raise LengthError(f"{path}: length {len(data)} not divisible by {_CLOUD_RECORD}")
    arr = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    with np.errstate(invalid="ignore"):  # a signalling NaN is rejected below
        arr = arr.astype(np.float64)
    try:
        return PointCloud.from_array(arr)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_cloud_bin(cloud: PointCloud, path) -> None:
    """Write the cloud as float32 quads (the read_cloud_bin inverse)."""
    arr = cloud.to_array().astype("<f4")
    with atomic_write(path) as fh:
        fh.write(arr.tobytes())


# ---------------------------------------------------------------------------
# Labels


def read_labels(path, class_map: ClassMap | None = None, remap: dict[int, int] | None = None):
    """Read a .label file.

    Returns (labels, instances): semantic class ids (uint16) and the
    preserved high-16-bit instance ids (uint16).  If `remap` is given the
    raw semantic ids are translated through it first; if `class_map` is
    given every resulting id must fall inside it.

    Raises LengthError on bad file length, UnknownClassError on ids that
    survive remapping but are not in the class map.
    """
    data = Path(path).read_bytes()
    if len(data) % _LABEL_RECORD:
        raise LengthError(f"{path}: length {len(data)} not divisible by {_LABEL_RECORD}")
    words = np.frombuffer(data, dtype="<u4")
    labels = (words & 0xFFFF).astype(np.uint16)
    instances = (words >> 16).astype(np.uint16)
    if remap is not None:
        table = np.full(65536, -1, dtype=np.int32)
        for raw, train in remap.items():
            table[raw] = train
        mapped = table[labels]
        if (mapped < 0).any():
            bad = int(labels[mapped < 0][0])
            raise UnknownClassError(f"{path}: raw class {bad} missing from remap table")
        labels = mapped.astype(np.uint16)
    if class_map is not None and labels.size and int(labels.max()) >= class_map.num_classes:
        bad = int(labels[labels >= class_map.num_classes][0])
        raise UnknownClassError(f"{path}: class {bad} outside map of {class_map.num_classes} classes")
    return labels, instances


def write_labels(labels: np.ndarray, path) -> None:
    """Write semantic labels as uint32 words with instance bits zeroed."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() > 0xFFFF):
        raise ValueError("semantic labels must fit in 16 bits")
    words = labels.astype("<u4")
    with atomic_write(path) as fh:
        fh.write(words.tobytes())


# ---------------------------------------------------------------------------
# Calibration


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from exc


def _parse_calib_lines(path):
    entries = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'KEY: values'")
        key, _, rest = line.partition(":")
        try:
            values = [float(tok) for tok in rest.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad float in {key!r} line") from exc
        entries[key.strip()] = values
    return entries


def read_calib(path, image_size: tuple[int, int], camera: int = 2) -> CalibrationRig:
    """Parse a calibration text file into a CalibrationRig.

    `image_size` is (width, height) in pixels; calibration files do not
    carry it.  `camera` selects the "P<camera>" projection line; the
    sensor-to-camera motion always comes from the "Tr" line, extended to a
    4x4 homogeneous matrix.
    """
    entries = _parse_calib_lines(path)
    pkey = f"P{camera}"
    for key in (pkey, "Tr"):
        if key not in entries:
            raise ParseError(f"{path}: missing '{key}:' line")
        if len(entries[key]) != 12:
            raise ParseError(f"{path}: '{key}:' needs 12 floats, got {len(entries[key])}")
    p = np.array(entries[pkey], dtype=np.float64).reshape(3, 4)
    tr = np.eye(4)
    tr[:3, :] = np.array(entries["Tr"], dtype=np.float64).reshape(3, 4)
    width, height = image_size
    try:
        return CalibrationRig(P=p, T=tr, width=int(width), height=int(height))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_calib(rig: CalibrationRig, path, camera: int = 2) -> None:
    """Write the rig's P and Tr lines (full float64 precision)."""
    def fmt(values):
        return " ".join(repr(float(v)) for v in values)

    text = f"P{camera}: {fmt(rig.P.ravel())}\nTr: {fmt(rig.T[:3, :].ravel())}\n"
    with atomic_write(path) as fh:
        fh.write(text.encode())


# ---------------------------------------------------------------------------
# PTNS tensors


def read_tensor(path) -> np.ndarray:
    """Read a PTNS container into a new array (C-order, native little-endian).

    The header is checked against the file size before anything is
    allocated, and the payload is read straight into the returned array.
    """
    with open(path, "rb") as fh:
        head = fh.read(10)
        if len(head) < 10:
            raise SizeMismatch(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, dtype_code, ndim = struct.unpack("<4sBBI", head)
        if magic != PTNS_MAGIC:
            raise BadMagic(f"{path}: magic {magic!r} != {PTNS_MAGIC!r}")
        if version != PTNS_VERSION:
            raise UnsupportedVersion(f"{path}: version {version}")
        if dtype_code not in _DTYPES:
            raise UnsupportedVersion(f"{path}: unknown dtype code {dtype_code}")
        header_end = 10 + 4 * ndim
        size = os.fstat(fh.fileno()).st_size
        if size < header_end:
            raise SizeMismatch(f"{path}: truncated dims (ndim={ndim})")
        if ndim > _MAX_NDIM:
            raise DimMismatch(f"{path}: ndim {ndim} exceeds {_MAX_NDIM}")
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        dtype = _DTYPES[dtype_code]
        expected = math.prod(dims) * dtype.itemsize
        if size - header_end != expected:
            raise SizeMismatch(f"{path}: payload {size - header_end} bytes, expected {expected}")
        arr = np.empty(dims, dtype=dtype)
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
        if got != expected:
            raise SizeMismatch(f"{path}: payload {got} bytes, expected {expected}")
    return arr


def write_tensor(arr: np.ndarray, path) -> None:
    """Write an array as a PTNS container; dtype must be float32, uint8, or uint32."""
    arr = np.asarray(arr, order="C")
    key = arr.dtype.newbyteorder("<")
    if key not in _DTYPE_CODES:
        supported = ", ".join(str(d) for d in _DTYPE_CODES)
        raise ValueError(f"unsupported tensor dtype {arr.dtype} (supported: {supported})")
    header = struct.pack("<4sBBI", PTNS_MAGIC, PTNS_VERSION, _DTYPE_CODES[key], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(arr.astype(key, copy=False).reshape(-1).view(np.uint8))


# ---------------------------------------------------------------------------
# Class map and remap tables


def _csv_pairs(path):
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first, sep, second = line.partition(",")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected 'a,b', got {line!r}")
        yield lineno, first.strip(), second.strip()


def read_class_map(path) -> ClassMap:
    """Read a CSV class map; ids must be dense 0..C-1 with id 0 = unlabeled."""
    by_id: dict[int, str] = {}
    for lineno, id_str, name in _csv_pairs(path):
        try:
            class_id = int(id_str)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad class id {id_str!r}") from exc
        if class_id in by_id:
            raise ParseError(f"{path}:{lineno}: duplicate class id {class_id}")
        if not name:
            raise ParseError(f"{path}:{lineno}: empty class name")
        by_id[class_id] = name
    if not by_id:
        raise ParseError(f"{path}: empty class map")
    if sorted(by_id) != list(range(len(by_id))):
        raise ParseError(f"{path}: class ids must be dense 0..{len(by_id) - 1}")
    try:
        return ClassMap([by_id[i] for i in range(len(by_id))])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_class_map(class_map: ClassMap, path) -> None:
    text = "".join(f"{i},{name}\n" for i, name in enumerate(class_map.names))
    with atomic_write(path) as fh:
        fh.write(text.encode())


def read_remap(path) -> dict[int, int]:
    """Read a CSV raw_id,train_id remap table."""
    table: dict[int, int] = {}
    for lineno, raw_str, train_str in _csv_pairs(path):
        try:
            raw_id, train_id = int(raw_str), int(train_str)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad id pair {raw_str!r},{train_str!r}") from exc
        if raw_id in table:
            raise ParseError(f"{path}:{lineno}: duplicate raw id {raw_id}")
        if not (0 <= raw_id <= 0xFFFF and 0 <= train_id <= 0xFFFF):
            raise ParseError(f"{path}:{lineno}: ids must fit in 16 bits")
        table[raw_id] = train_id
    return table
