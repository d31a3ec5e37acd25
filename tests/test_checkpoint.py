"""Named-tensor container: round trips, canonical bytes, corruption checks."""

import struct
import tracemalloc

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import MAGIC, load_tensors, save_tensors
from nirrec.errors import IngestionError


class TestCheckpointContainer:
    """File format guarantees for checkpoints and shards."""

    def test_round_trip_preserves_values_and_shapes(self, tmp_path):
        """Scalars through 3-d arrays survive a save/load cycle exactly."""
        rng = np.random.default_rng(0)
        tensors = {
            "scalar": np.asarray(3.25),
            "vec": rng.normal(size=7),
            "mat": rng.normal(size=(3, 4)),
            "cube": rng.normal(size=(2, 3, 2)),
        }
        path = tmp_path / "ckpt.bin"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float64
            np.testing.assert_array_equal(loaded[name], arr)

    def test_accepts_tensor_objects(self, tmp_path):
        """Tensor values are stored via their underlying arrays."""
        path = tmp_path / "t.bin"
        save_tensors(path, {"w": ad.Tensor([[1.0, 2.0]])})
        np.testing.assert_array_equal(load_tensors(path)["w"], [[1.0, 2.0]])

    def test_bytes_independent_of_insertion_order(self, tmp_path):
        """Entries are sorted by name, so the file bytes are canonical."""
        a = {"x": np.ones(2), "y": np.zeros(3), "a.b": np.full(1, 2.0)}
        b = dict(reversed(list(a.items())))
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(pa, a)
        save_tensors(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_magic_prefix(self, tmp_path):
        """Files start with the 8-byte container magic."""
        path = tmp_path / "m.bin"
        save_tensors(path, {"t": np.zeros(1)})
        assert path.read_bytes()[:8] == MAGIC == b"NIRGNN01"

    def test_bad_magic_rejected(self, tmp_path):
        """A foreign file fails loudly instead of parsing garbage."""
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(IngestionError):
            load_tensors(path)

    def test_truncated_file_rejected(self, tmp_path):
        """Cutting the payload mid-entry raises an ingestion error."""
        path = tmp_path / "trunc.bin"
        save_tensors(path, {"w": np.ones((4, 4))})
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 9])
        with pytest.raises(IngestionError):
            load_tensors(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        """Extra bytes after the last entry indicate corruption."""
        path = tmp_path / "trail.bin"
        save_tensors(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IngestionError):
            load_tensors(path)

    def test_empty_mapping_round_trips(self, tmp_path):
        """Zero entries is a valid container."""
        path = tmp_path / "empty.bin"
        save_tensors(path, {})
        assert load_tensors(path) == {}


def reference_container_bytes(tensors) -> bytes:
    """The container built in memory, entry by entry, as a reference for
    the streaming writer."""
    buf = bytearray(MAGIC)
    buf += struct.pack("<Q", len(tensors))
    for name, value in sorted(tensors.items()):
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        name_bytes = name.encode("utf-8")
        buf += struct.pack("<I", len(name_bytes)) + name_bytes
        buf += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
        buf += arr.astype("<f8").tobytes(order="C")
    return bytes(buf)


class TestStreamingContainer:
    """The writer streams and the reader fills fresh arrays; the bytes and
    the checks stay those of the in-memory format."""

    def fixed_mapping(self):
        rng = np.random.default_rng(7)
        return {
            "scalar": np.asarray(-0.5),
            "empty": np.zeros(0),
            "empty_rows": np.zeros((0, 3)),
            "ints": np.arange(5),
            "mat": rng.normal(size=(4, 3)),
            "strided": rng.normal(size=(6, 4))[::2, 1:],
            "fortran": np.asfortranarray(rng.normal(size=(3, 5))),
            "unicode.名": rng.normal(size=(2, 2, 2)),
        }

    def test_bytes_equal_in_memory_reference(self, tmp_path):
        tensors = self.fixed_mapping()
        path = tmp_path / "c.bin"
        save_tensors(path, tensors)
        assert path.read_bytes() == reference_container_bytes(tensors)
        loaded = load_tensors(path)
        for name, value in tensors.items():
            np.testing.assert_array_equal(loaded[name], np.atleast_1d(value))

    def test_loaded_arrays_are_writable_and_own_their_memory(self, tmp_path):
        path = tmp_path / "c.bin"
        save_tensors(path, {"a": np.ones((3, 2)), "b": np.arange(4.0)})
        loaded = load_tensors(path)
        for arr in loaded.values():
            assert arr.flags.writeable and arr.flags.owndata and arr.flags.c_contiguous
            arr += 1.0  # a loaded checkpoint must stay trainable in place
        np.testing.assert_array_equal(loaded["a"], np.full((3, 2), 2.0))

    def test_every_cut_point_rejected(self, tmp_path):
        """A file cut anywhere after the magic, inside a header or an
        array, raises IngestionError and never reads past its end."""
        path = tmp_path / "c.bin"
        save_tensors(path, {"ab": np.ones((2, 2)), "c": np.zeros(1)})
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(IngestionError):
                load_tensors(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        """A header declaring far more values than the file holds fails as
        corrupt instead of allocating them."""
        path = tmp_path / "huge.bin"
        name = b"w"
        for shape in ((2**27,), (2**40, 2**20)):
            path.write_bytes(
                MAGIC + struct.pack("<Q", 1) + struct.pack("<I", len(name)) + name
                + struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
                + b"\x00" * 8
            )
            tracemalloc.start()
            try:
                with pytest.raises(IngestionError, match="truncated or corrupt"):
                    load_tensors(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        path.write_bytes(MAGIC + struct.pack("<Q", 1) + struct.pack("<I", 2**31))
        with pytest.raises(IngestionError, match="truncated or corrupt"):
            load_tensors(path)
