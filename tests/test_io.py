"""On-disk format round trips and typed failure modes."""

import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seglift import io
from seglift.core import CalibrationRig, ClassMap, PointCloud
from seglift.errors import (
    BadMagic,
    DimMismatch,
    LengthError,
    ParseError,
    SizeMismatch,
    ToolkitError,
    UnknownClassError,
    UnsupportedVersion,
)


def random_cloud_bytes(rng, n):
    arr = np.column_stack([
        rng.uniform(-80, 80, (n, 3)).astype("<f4"),
        rng.uniform(0, 1, (n, 1)).astype("<f4"),
    ]).astype("<f4")
    return arr.tobytes()


class TestCloudBin:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(io.read_cloud_bin(path)) == 0

    def test_single_point(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        cloud = io.read_cloud_bin(path)
        np.testing.assert_array_equal(cloud.xyz, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(cloud.intensity, [0.5])

    def test_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "src.bin"
        dst = tmp_path / "dst.bin"
        src.write_bytes(random_cloud_bytes(rng, 257))
        io.write_cloud_bin(io.read_cloud_bin(src), dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(LengthError):
            io.read_cloud_bin(path)

    def test_nan_coordinates_raise_parse_error(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<4f", np.nan, 0.0, 0.0, 0.5))
        with pytest.raises(ParseError):
            io.read_cloud_bin(path)

    @pytest.mark.parametrize("field", range(4))
    def test_signalling_nan_is_a_silent_parse_error(self, tmp_path, field):
        words = [0x3F800000] * 4  # 1.0
        words[field] = 0x7FA00000  # float32 signalling NaN
        path = tmp_path / "snan.bin"
        path.write_bytes(struct.pack("<4I", *words))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError):
                io.read_cloud_bin(path)

    def test_columns_are_the_float32_values_bit_for_bit(self, tmp_path):
        f32 = np.finfo(np.float32)
        sub = float(f32.smallest_subnormal)
        quads = np.array([[-0.0, sub, -sub, 0.0],
                          [f32.max, -f32.max, 1e-40, sub],
                          [-1e-40, 1.5, -2.25, 1.0],
                          [0.0, -0.0, 0.0, -0.0]], dtype="<f4")
        path = tmp_path / "edge.bin"
        path.write_bytes(quads.tobytes())
        cloud = io.read_cloud_bin(path)
        want = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(-1, 4).astype(np.float64)
        assert cloud.xyz.dtype == cloud.intensity.dtype == np.float64
        assert cloud.xyz.tobytes() == np.ascontiguousarray(want[:, :3]).tobytes()
        assert cloud.intensity.tobytes() == np.ascontiguousarray(want[:, 3]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_from_array_shares_no_memory_with_its_input(self, dtype):
        arr = np.random.default_rng(3).uniform(0, 1, (9, 4)).astype(dtype)
        cloud = PointCloud.from_array(arr)
        assert not np.shares_memory(cloud.xyz, arr)
        assert not np.shares_memory(cloud.intensity, arr)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            io.read_cloud_bin(tmp_path / "nope.bin")


class TestLabels:
    def test_zero_word(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0))
        labels = io.read_labels(path)
        assert labels.dtype == np.uint16 and labels.tolist() == [0]

    def test_instance_bits_split(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0x002A000A))
        labels = io.read_labels(path)
        assert labels.dtype == np.uint16 and labels.tolist() == [10]

    def test_roundtrip_zero_instance(self, tmp_path):
        rng = np.random.default_rng(1)
        src = tmp_path / "src.label"
        words = rng.integers(0, 20, 500).astype("<u4")
        src.write_bytes(words.tobytes())
        labels = io.read_labels(src)
        dst = tmp_path / "dst.label"
        io.write_labels(labels, dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_write_zeroes_instances(self, tmp_path):
        src = tmp_path / "src.label"
        src.write_bytes(struct.pack("<I", 0x002A000A))
        labels = io.read_labels(src)
        dst = tmp_path / "dst.label"
        io.write_labels(labels, dst)
        assert struct.unpack("<I", dst.read_bytes())[0] == 0x0000000A

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.label"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(LengthError):
            io.read_labels(path)

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 99))
        with pytest.raises(UnknownClassError):
            io.read_labels(path, class_map=ClassMap(["unlabeled", "car"]))

    def test_remap(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<2I", 40, 44))
        labels = io.read_labels(path, remap={40: 1, 44: 2})
        assert labels.tolist() == [1, 2]

    def test_remap_missing_raw_id(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 7))
        with pytest.raises(UnknownClassError):
            io.read_labels(path, remap={40: 1})


class TestCalib:
    def _write(self, tmp_path, p_line="P2: 100 0 320 0 0 100 240 0 0 0 1 0",
               tr_line="Tr: 1 0 0 0 0 1 0 0 0 0 1 0"):
        path = tmp_path / "calib.txt"
        path.write_text(f"{p_line}\n{tr_line}\n")
        return path

    def test_identity_tr(self, tmp_path):
        rig = io.read_calib(self._write(tmp_path), image_size=(640, 480))
        np.testing.assert_array_equal(rig.T, np.eye(4))
        assert rig.P[0, 0] == 100.0

    def test_missing_tr(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ParseError):
            io.read_calib(path, image_size=(10, 10))

    def test_wrong_float_count(self, tmp_path):
        path = self._write(tmp_path, p_line="P2: 1 0 0 0 0 1 0 0 0 0 1")
        with pytest.raises(ParseError):
            io.read_calib(path, image_size=(10, 10))

    def test_bad_float(self, tmp_path):
        path = self._write(tmp_path, tr_line="Tr: a b c d e f g h i j k l")
        with pytest.raises(ParseError):
            io.read_calib(path, image_size=(10, 10))

    def test_non_rigid_tr_rejected(self, tmp_path):
        path = self._write(tmp_path, tr_line="Tr: 2 0 0 0 0 1 0 0 0 0 1 0")
        with pytest.raises(ParseError):
            io.read_calib(path, image_size=(10, 10))

    def test_write_read_roundtrip(self, tmp_path):
        rig = io.read_calib(self._write(tmp_path), image_size=(640, 480))
        out = tmp_path / "calib2.txt"
        io.write_calib(rig, out)
        again = io.read_calib(out, image_size=(640, 480))
        np.testing.assert_array_equal(again.P, rig.P)
        np.testing.assert_array_equal(again.T, rig.T)


class TestTensor:
    def test_roundtrip_matrix(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "m.ptns"
        io.write_tensor(arr, path)
        np.testing.assert_array_equal(io.read_tensor(path), arr)

    def test_roundtrip_uint8_and_uint32(self, tmp_path):
        for arr in (np.array([0, 1, 1], dtype=np.uint8),
                    np.array([7, 9], dtype=np.uint32)):
            path = tmp_path / "t.ptns"
            io.write_tensor(arr, path)
            out = io.read_tensor(path)
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ptns"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(BadMagic):
            io.read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ptns"
        path.write_bytes(struct.pack("<4sBBI", b"PTNS", 9, 0, 0))
        with pytest.raises(UnsupportedVersion):
            io.read_tensor(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "bad.ptns"
        path.write_bytes(struct.pack("<4sBBI", b"PTNS", 1, 77, 0))
        with pytest.raises(UnsupportedVersion):
            io.read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.float32)
        path = tmp_path / "t.ptns"
        io.write_tensor(arr, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SizeMismatch):
            io.read_tensor(path)

    def test_dtype_is_checked_before_the_size(self, tmp_path):
        path = tmp_path / "t.ptns"
        io.write_tensor(np.zeros((4, 4), dtype=np.uint32), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DimMismatch, match=re.escape(f"{path}: uint32 tensor, expected float32")):
            io.read_tensor(path, dtype=np.float32)
        with pytest.raises(SizeMismatch):
            io.read_tensor(path, dtype=np.uint32)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.ptns"
        path.write_bytes(b"PTNS\x01")
        with pytest.raises(SizeMismatch):
            io.read_tensor(path)

    def test_rejects_unsupported_write_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_tensor(np.zeros(3, dtype=np.float64), tmp_path / "t.ptns")

    @pytest.mark.parametrize("shape", [(), (0,), (5,), (0, 3), (3, 0), (2, 3), (2, 0, 4), (2, 3, 4)])
    @pytest.mark.parametrize("dtype", ["<f4", "<u1", "<u4"])
    def test_roundtrip_every_dtype_and_ndim(self, tmp_path, dtype, shape):
        arr = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
        path = tmp_path / "t.ptns"
        io.write_tensor(arr, path)
        out = io.read_tensor(path)
        assert out.dtype == arr.dtype and out.shape == shape
        np.testing.assert_array_equal(out, arr)
        assert out.flags.writeable and out.flags.owndata
        out[...] = 1  # the result is the caller's to change
        again = tmp_path / "again.ptns"
        io.write_tensor(io.read_tensor(path), again)
        assert again.read_bytes() == path.read_bytes()
        mapped = io.read_tensor(path, mmap=True)
        assert isinstance(mapped, np.memmap) and not mapped.flags.writeable
        assert mapped.dtype == arr.dtype and mapped.shape == shape
        np.testing.assert_array_equal(mapped, arr)

    @pytest.mark.parametrize("damage, error", [
        ("magic", BadMagic), ("truncated", SizeMismatch), ("shape", DimMismatch)])
    def test_mmap_checks_the_file_before_mapping_it(self, tmp_path, monkeypatch, damage, error):
        path = tmp_path / "t.ptns"
        io.write_tensor(np.zeros((4, 3), dtype=np.float32), path)
        data, shape = path.read_bytes(), (4, None)
        if damage == "magic":
            path.write_bytes(b"XXXX" + data[4:])
        elif damage == "truncated":
            path.write_bytes(data[:-8])
        else:
            shape = (5, None)
        monkeypatch.setattr(np, "memmap", None)  # mapping would raise TypeError
        with pytest.raises(error):
            io.read_tensor(path, shape=shape, mmap=True)

    def test_huge_dims_over_short_payload_allocate_nothing(self, tmp_path):
        path = tmp_path / "t.ptns"
        path.write_bytes(struct.pack("<4sBBI3I", b"PTNS", 1, 0, 3, 2**32 - 1, 2**32 - 1, 1000)
                         + b"\x00" * 64)
        whole = tmp_path / "whole.ptns"  # a 4 MiB payload that matches its header
        io.write_tensor(np.zeros(2**20, dtype=np.float32), whole)
        tracemalloc.start()
        try:
            with pytest.raises(SizeMismatch):
                io.read_tensor(path)
            # A shape that does not fit is rejected from the header alone.
            with pytest.raises(DimMismatch, match="does not fit"):
                io.read_tensor(path, shape=(2**32 - 1, None, 999))
            with pytest.raises(DimMismatch, match=r"\(1048576,\) does not fit the expected \(5\)"):
                io.read_tensor(whole, shape=(5,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestClassMapFile:
    def test_minimal(self, tmp_path):
        path = tmp_path / "cm.csv"
        path.write_text("0,unlabeled\n1,car\n")
        assert io.read_class_map(path).num_classes == 2

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "cm.csv"
        path.write_text("0,unlabeled\n0,car\n")
        with pytest.raises(ParseError):
            io.read_class_map(path)

    def test_zero_must_be_unlabeled(self, tmp_path):
        path = tmp_path / "cm.csv"
        path.write_text("0,road\n1,car\n")
        with pytest.raises(ParseError):
            io.read_class_map(path)

    def test_ids_must_be_dense(self, tmp_path):
        path = tmp_path / "cm.csv"
        path.write_text("0,unlabeled\n2,car\n")
        with pytest.raises(ParseError):
            io.read_class_map(path)

    def test_roundtrip(self, tmp_path):
        cm = ClassMap(["unlabeled", "road", "car"])
        path = tmp_path / "cm.csv"
        io.write_class_map(cm, path)
        assert io.read_class_map(path) == cm


class TestRemapFile:
    def test_basic(self, tmp_path):
        path = tmp_path / "remap.csv"
        path.write_text("40,1\n44,2\n")
        assert io.read_remap(path) == {40: 1, 44: 2}

    def test_duplicate_raw(self, tmp_path):
        path = tmp_path / "remap.csv"
        path.write_text("40,1\n40,2\n")
        with pytest.raises(ParseError):
            io.read_remap(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [b"old bytes", None], ids=["over-a-file", "new-file"])
    def test_a_writer_that_raises_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "out.ptns"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(KeyboardInterrupt):
            with io.atomic_write(path) as fh:
                fh.write(b"partial")
                raise KeyboardInterrupt
        assert not list(tmp_path.glob("*.tmp"))
        assert (path.read_bytes() if path.exists() else None) == existing


def test_random_roundtrips_are_byte_identical(tmp_path):
    rng = np.random.default_rng(42)
    for i in range(25):
        n = int(rng.integers(0, 400))
        src = tmp_path / f"c{i}.bin"
        src.write_bytes(random_cloud_bytes(rng, n))
        dst = tmp_path / f"c{i}.out.bin"
        io.write_cloud_bin(io.read_cloud_bin(src), dst)
        assert src.read_bytes() == dst.read_bytes()

        arr = rng.uniform(0, 1, (int(rng.integers(1, 50)), int(rng.integers(1, 8)))).astype(np.float32)
        tsrc = tmp_path / f"t{i}.ptns"
        io.write_tensor(arr, tsrc)
        tdst = tmp_path / f"t{i}.out.ptns"
        io.write_tensor(io.read_tensor(tsrc), tdst)
        assert tsrc.read_bytes() == tdst.read_bytes()


def ptns_like(code, dims, tail, ndim=None):
    """A PTNS header (declaring `ndim` dims, default len(dims)) followed by `tail`."""
    ndim = len(dims) if ndim is None else ndim
    return struct.pack(f"<4sBBI{len(dims)}I", b"PTNS", 1, code, ndim, *dims) + tail


# Bytes that reach each parser's later checks, not just its first one.
_FUZZ_BLOBS = st.one_of(
    st.binary(max_size=300),
    st.builds(ptns_like, st.integers(0, 3), st.lists(st.integers(0, 4), max_size=70),
              st.binary(max_size=64), st.none() | st.integers(0, 2**32 - 1)),
    st.builds(lambda t: t.encode(), st.text(alphabet="PTr20123456789.,-+e: \nnaifunlabeled",
                                            max_size=300)),
    st.builds(lambda p, t: f"P2: {' '.join(map(repr, p))}\nTr: {' '.join(map(repr, t))}\n".encode(),
              st.lists(st.floats(), min_size=11, max_size=13),
              st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-9, float("nan")]), min_size=12, max_size=12)),
    st.builds(lambda names: "".join(f"{i},{n}\n" for i, n in enumerate(names)).encode(),
              st.lists(st.text(max_size=8), max_size=5)),
    st.builds(lambda pairs: "".join(f"{a},{b}\n" for a, b in pairs).encode(),
              st.lists(st.tuples(st.integers(-2, 0x10001), st.integers(-2, 0x10001)), max_size=6)),
)


def fits(dims, shape):
    """Whether `dims` has `shape`, where a None entry matches any size."""
    return shape is None or (len(dims) == len(shape)
                             and all(s is None or s == d for d, s in zip(dims, shape)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_FUZZ_BLOBS,
       shape=st.none() | st.lists(st.none() | st.integers(0, 4), max_size=3).map(tuple),
       count=st.none() | st.integers(0, 80),
       dtype=st.none() | st.sampled_from([np.float32, np.uint8, np.uint32]))
@example(blob=ptns_like(0, [0] * 70, b""), shape=None, count=None, dtype=None)  # too many dims
@example(blob=ptns_like(2, [2, 1], b"\x00" * 8), shape=(2, None), count=4,
         dtype=np.uint32)  # all fit
@example(blob=ptns_like(2, [2, 1], b"\x00" * 8), shape=(2, 2), count=3,
         dtype=np.float32)  # none fits
@example(blob=ptns_like(2, [2, 1], b"\x00" * 8), shape=(2,), count=None,
         dtype=None)  # too few dims
def test_readers_return_valid_results_or_typed_errors(tmp_path, blob, shape, count, dtype):
    """Arbitrary bytes either read back as a valid artifact or raise a ToolkitError.

    A read given an expected `shape`, `dtype` or `count` returns exactly
    that, or raises a ToolkitError when the plain read fails or does not fit.
    """
    path = tmp_path / "blob"
    path.write_bytes(blob)
    again = tmp_path / "again"

    try:
        arr = io.read_tensor(path)
    except ToolkitError:
        arr = None
    else:
        io.write_tensor(arr, again)
        assert again.read_bytes() == blob

    try:
        fitted = io.read_tensor(path, shape=shape, dtype=dtype)
    except ToolkitError:
        assert arr is None or not fits(arr.shape, shape) or arr.dtype != (dtype or arr.dtype)
    else:
        assert fits(fitted.shape, shape) and fitted.dtype == (dtype or fitted.dtype)
        assert arr is not None and fitted.dtype == arr.dtype and fitted.shape == arr.shape
        assert fitted.tobytes() == arr.tobytes()

    try:  # a mapped read fails exactly as the plain one does, or equals it
        mapped = io.read_tensor(path, shape=shape, dtype=dtype, mmap=True)
    except ToolkitError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            io.read_tensor(path, shape=shape, dtype=dtype)
    else:
        assert isinstance(mapped, np.memmap) and not mapped.flags.writeable
        assert arr is not None and mapped.dtype == arr.dtype and mapped.shape == arr.shape
        assert mapped.tobytes() == arr.tobytes() and fits(mapped.shape, shape)
        assert mapped.dtype == (dtype or arr.dtype)
        del mapped  # unmap before the file is rewritten

    try:
        cloud = io.read_cloud_bin(path)
    except ToolkitError:
        pass
    else:
        io.write_cloud_bin(cloud, again)
        assert again.read_bytes() == blob

    try:
        labels = io.read_labels(path)
    except ToolkitError:
        labels = None
    else:
        words = np.frombuffer(blob, dtype="<u4")
        assert labels.dtype == np.uint16
        np.testing.assert_array_equal(labels, words & 0xFFFF)

    try:
        counted = io.read_labels(path, count=count)
    except ToolkitError:
        assert labels is None or count not in (None, len(labels))
    else:
        assert count in (None, len(counted))
        assert labels is not None and np.array_equal(counted, labels)

    try:
        rig = io.read_calib(path, image_size=(4, 4))
    except ToolkitError:
        pass
    else:
        assert isinstance(rig, CalibrationRig)
        io.write_calib(rig, again)
        back = io.read_calib(again, image_size=(4, 4))
        np.testing.assert_array_equal(back.P, rig.P)
        np.testing.assert_array_equal(back.T, rig.T)

    try:
        class_map = io.read_class_map(path)
    except ToolkitError:
        pass
    else:
        io.write_class_map(class_map, again)
        assert io.read_class_map(again) == class_map

    try:
        remap = io.read_remap(path)
    except ToolkitError:
        pass
    else:
        assert all(0 <= k <= 0xFFFF and 0 <= v <= 0xFFFF for k, v in remap.items())
        again.write_text("".join(f"{k},{v}\n" for k, v in remap.items()))
        assert io.read_remap(again) == remap
