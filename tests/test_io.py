"""On-disk format round trips and typed failure modes."""

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

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            io.read_cloud_bin(tmp_path / "nope.bin")


class TestLabels:
    def test_zero_word(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0))
        labels, instances = io.read_labels(path)
        assert labels.tolist() == [0] and instances.tolist() == [0]

    def test_instance_bits_split(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0x002A000A))
        labels, instances = io.read_labels(path)
        assert labels.tolist() == [10]
        assert instances.tolist() == [0x2A]

    def test_roundtrip_zero_instance(self, tmp_path):
        rng = np.random.default_rng(1)
        src = tmp_path / "src.label"
        words = rng.integers(0, 20, 500).astype("<u4")
        src.write_bytes(words.tobytes())
        labels, _ = io.read_labels(src)
        dst = tmp_path / "dst.label"
        io.write_labels(labels, dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_write_zeroes_instances(self, tmp_path):
        src = tmp_path / "src.label"
        src.write_bytes(struct.pack("<I", 0x002A000A))
        labels, _ = io.read_labels(src)
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
        labels, _ = io.read_labels(path, remap={40: 1, 44: 2})
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

    def test_huge_dims_over_short_payload_allocate_nothing(self, tmp_path):
        path = tmp_path / "t.ptns"
        path.write_bytes(struct.pack("<4sBBI3I", b"PTNS", 1, 0, 3, 2**32 - 1, 2**32 - 1, 1000)
                         + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(SizeMismatch):
                io.read_tensor(path)
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_FUZZ_BLOBS)
@example(blob=ptns_like(0, [0] * 70, b""))  # more dims than numpy allows
def test_readers_return_valid_results_or_typed_errors(tmp_path, blob):
    """Arbitrary bytes either read back as a valid artifact or raise a ToolkitError."""
    path = tmp_path / "blob"
    path.write_bytes(blob)
    again = tmp_path / "again"

    try:
        arr = io.read_tensor(path)
    except ToolkitError:
        pass
    else:
        io.write_tensor(arr, again)
        assert again.read_bytes() == blob

    try:
        cloud = io.read_cloud_bin(path)
    except ToolkitError:
        pass
    else:
        io.write_cloud_bin(cloud, again)
        assert again.read_bytes() == blob

    try:
        labels, instances = io.read_labels(path)
    except ToolkitError:
        pass
    else:
        words = np.frombuffer(blob, dtype="<u4")
        np.testing.assert_array_equal(labels, words & 0xFFFF)
        np.testing.assert_array_equal(instances, words >> 16)

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
