"""Binary weight archives, and the sealed container they share with
datasets (data.py).

A sealed file is a 4-byte magic, a body, and a u32 CRC-32 of every byte
before it; the checksum is verified before any field of the body is
parsed. An array in a body is a u32 dtype tag (DTYPE_TAGS), shape fields
whose layout is the format's own, and the raw little-endian payload. A
sealed file is read once into a buffer of its own, and an array decoded
from it is a view of that buffer wherever its payload is native-order,
aligned or not (an archive's records are not padded, so most of its float
payloads start unaligned; restore_state copies them into the model once).
All integers are little-endian. An archive is magic "MNWT" and
the body

  u32 version | u32 config_len | config JSON | u32 tensor_count | records...

Each record is u32 name_len, name bytes, u32 dtype tag, u32 rank,
rank * u64 dims, then the payload. Tensor names are the model's
parameter and buffer names, each stated once; an archive restores only
into a model with exactly the same name set, shapes and dtypes.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .models import ModelSpec, Network
from .module import _NO_DRAW

MAGIC = b"MNWT"
VERSION = 1

DTYPE_TAGS = {
    np.dtype("float32"): 1,
    np.dtype("float64"): 2,
    np.dtype("uint8"): 3,
    np.dtype("uint32"): 4,
}
TAG_DTYPES = {tag: dt for dt, tag in DTYPE_TAGS.items()}


class ArchiveError(Exception):
    """Raised for malformed, corrupted or mismatched archives."""


def _seal(path: Path, buf: bytearray) -> None:
    """Append the CRC-32 of buf to it and write it to path."""
    buf += struct.pack("<I", zlib.crc32(buf))
    path.write_bytes(buf)


def _read(path: Path) -> np.ndarray:
    """Every byte of the file at path, in a new writable buffer. Reads run
    to EOF, so a file whose size changes after the stat is read as it ends."""
    with open(path, "rb", buffering=0) as f:
        buf = np.empty(os.fstat(f.fileno()).st_size, np.uint8)
        view, got = memoryview(buf), 0
        while got < len(buf):
            n = f.readinto(view[got:])
            if not n:
                return buf[:got]
            got += n
        more = f.read()
    return np.concatenate((buf, np.frombuffer(more, np.uint8))) if more else buf


def _unseal(path: Path, magic: bytes, header: int,
            error: type[Exception]) -> memoryview:
    """The body of the sealed file at path after its magic, checked in this
    order: room for a header of that many bytes, the CRC-32, the magic. The
    body is a view of a buffer that only this call's arrays share."""
    raw = memoryview(_read(path))
    if len(raw) < len(magic) + header + 4:
        raise error(f"{path.name}: truncated file")
    if zlib.crc32(raw[:-4]) != struct.unpack("<I", raw[-4:])[0]:
        raise error(f"{path.name}: checksum mismatch")
    if raw[:len(magic)] != magic:
        raise error(f"{path.name}: bad magic")
    return raw[len(magic):-4]


def _encode_array(arr: np.ndarray, error: type[Exception],
                  what: str) -> tuple[int, memoryview]:
    """The dtype tag of arr and its little-endian payload; an unsupported
    dtype raises error naming what."""
    tag = DTYPE_TAGS.get(arr.dtype)
    if tag is None:
        raise error(f"{what}: unsupported dtype {arr.dtype}")
    return tag, np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).data


def _decode_array(body: memoryview, tag: int, shape: tuple, error: type[Exception],
                  what: str, whole: bool = False) -> tuple[np.ndarray, memoryview]:
    """Decode the array of dtype tag and shape at the start of body; returns
    it and the rest of body. The array is a view of body when its payload is
    native-order, aligned or not, else a native-order copy. A bad tag or
    shape, a body too short for the payload, or with whole any byte after
    it, raises error naming what."""
    dtype = TAG_DTYPES.get(tag)
    if dtype is None:
        raise error(f"{what}: unknown dtype tag {tag}")
    # a Python int: an int64 product of untrusted dims can overflow
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > len(body):
        raise error(f"{what}: shape {shape} needs {nbytes} bytes, "
                    f"{len(body)} remain")
    if whole and nbytes < len(body):
        raise error(f"{what}: {len(body) - nbytes} trailing bytes after the payload")
    arr = np.frombuffer(body[:nbytes], dtype=dtype.newbyteorder("<")).astype(dtype, copy=False)
    try:
        return arr.reshape(shape), body[nbytes:]
    except ValueError as e:                            # empty, but dims too large
        raise error(f"{what}: bad shape {shape}: {e}") from None


def collect_state(net: Network) -> dict:
    """Parameters and buffers by qualified name, in traversal order."""
    state = {name: p.data for name, p in net.named_params()}
    state.update(net.named_buffers())
    return state


class _Cursor:
    def __init__(self, rest: memoryview):
        self.rest = rest

    def take(self, n: int) -> memoryview:
        if n > len(self.rest):
            raise ArchiveError("truncated archive")
        out, self.rest = self.rest[:n], self.rest[n:]
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def save_weights(path, net: Network) -> None:
    state = collect_state(net)
    config = json.dumps(net.spec.to_config(), sort_keys=True).encode("utf-8")
    buf = bytearray(MAGIC)
    buf += struct.pack("<II", VERSION, len(config)) + config
    buf += struct.pack("<I", len(state))
    for name, arr in state.items():
        tag, payload = _encode_array(arr, ArchiveError, f"tensor {name!r}")
        nb = name.encode("utf-8")
        buf += struct.pack("<I", len(nb)) + nb
        buf += struct.pack(f"<II{arr.ndim}Q", tag, arr.ndim, *arr.shape)
        buf += payload
    _seal(Path(path), buf)


def load_archive(path) -> tuple[dict, dict]:
    """Read and checksum an archive. Returns (model config, state dict)."""
    path = Path(path)
    cur = _Cursor(_unseal(path, MAGIC, 12, ArchiveError))
    version = cur.u32()
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    config_len = cur.u32()
    try:
        config = json.loads(str(cur.take(config_len), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ArchiveError(f"bad config blob: {e}") from None
    if not isinstance(config, dict):
        raise ArchiveError(f"bad config blob: expected a JSON object, got "
                           f"{type(config).__name__}")
    count = cur.u32()

    state = {}
    for _ in range(count):
        try:
            name = str(cur.take(cur.u32()), "utf-8")
        except UnicodeDecodeError as e:
            raise ArchiveError(f"tensor name is not UTF-8: {e}") from None
        if name in state:
            raise ArchiveError(f"tensor {name!r} is stated twice")
        tag, rank = cur.u32(), cur.u32()
        if rank > 8:
            raise ArchiveError(f"implausible rank {rank} for tensor {name!r}")
        shape = struct.unpack(f"<{rank}Q", cur.take(8 * rank))
        state[name], cur.rest = _decode_array(cur.rest, tag, shape, ArchiveError,
                                              f"tensor {name!r}")
    if len(cur.rest):
        raise ArchiveError(f"{path.name}: {len(cur.rest)} trailing bytes after "
                           f"the last tensor")
    return config, state


def restore_state(net: Network, state: dict) -> None:
    """Copy archive state into a built model. The name sets must match
    exactly and every shape and dtype must agree."""
    target = collect_state(net)
    missing = sorted(set(target) - set(state))
    unexpected = sorted(set(state) - set(target))
    if missing or unexpected:
        raise ArchiveError(
            f"state mismatch: missing {missing or 'none'}, "
            f"unexpected {unexpected or 'none'}")
    for name, arr in target.items():
        src = state[name]
        if src.shape != arr.shape:
            raise ArchiveError(
                f"shape mismatch for {name!r}: {src.shape} vs {arr.shape}")
        if src.dtype != arr.dtype:
            raise ArchiveError(
                f"dtype mismatch for {name!r}: {src.dtype} vs {arr.dtype}")
        np.copyto(arr, src)


def load_model(path) -> Network:
    """Rebuild the archived model and restore its weights. The rebuild draws
    no random numbers: its values are zeros until restore_state copies the
    archive's in, so a config that claims shapes its records lack touches
    no memory for them before the shape check rejects it, and one that
    cannot be allocated at all is an ArchiveError too."""
    config, state = load_archive(path)
    dtypes = {v.dtype for v in state.values() if v.dtype.kind == "f"}
    dtype = np.float64 if np.dtype("float64") in dtypes else np.float32
    try:
        net = Network(ModelSpec.from_config(config), rng=_NO_DRAW, dtype=dtype)
    except (KeyError, MemoryError, OverflowError, TypeError, ValueError) as e:
        raise ArchiveError(f"bad model config: {e}") from None
    restore_state(net, state)
    return net
