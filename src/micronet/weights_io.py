"""Binary weight archives.

Layout (all integers little-endian):

  magic "MNWT" | u32 version | u32 config_len | config JSON |
  u32 tensor_count | records... | u32 crc32

Each record is u32 name_len, name bytes, u32 dtype tag, u32 rank,
rank * u64 dims, then the raw little-endian payload. The checksum covers
every preceding byte and is verified before any parsing. Tensor names
are the model's parameter and buffer names; an archive restores only
into a model with exactly the same name set, shapes and dtypes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .models import ModelSpec, Network

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


def collect_state(net: Network) -> dict:
    """Parameters and buffers by qualified name, in traversal order."""
    state = {}
    for name, p in net.named_params():
        state[name] = p.data
    for name, owner in net.named_buffers():
        state[name] = owner._buffers[name.rsplit(".", 1)[-1]]
    return state


class _Cursor:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise ArchiveError("truncated archive")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64s(self, n: int) -> tuple:
        return struct.unpack(f"<{n}Q", self.take(8 * n)) if n else ()


def _encode_array(name: str, arr: np.ndarray) -> bytes:
    dtype = np.dtype(arr.dtype)
    tag = DTYPE_TAGS.get(dtype)
    if tag is None:
        raise ArchiveError(f"unsupported dtype {dtype} for tensor {name!r}")
    nb = name.encode("utf-8")
    head = struct.pack("<I", len(nb)) + nb
    head += struct.pack("<II", tag, arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=dtype.newbyteorder("<")).tobytes()
    return head + payload


def save_weights(path, net: Network) -> None:
    state = collect_state(net)
    config = json.dumps(net.spec.to_config(), sort_keys=True).encode("utf-8")
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack("<I", len(config))
    buf += config
    buf += struct.pack("<I", len(state))
    for name, arr in state.items():
        buf += _encode_array(name, arr)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(buf))


def load_archive(path) -> tuple[dict, dict]:
    """Read and checksum an archive. Returns (model config, state dict)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 16:
        raise ArchiveError("truncated archive")
    body, tail = raw[:-4], raw[-4:]
    stored = struct.unpack("<I", tail)[0]
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        raise ArchiveError("checksum mismatch")

    cur = _Cursor(body)
    if cur.take(4) != MAGIC:
        raise ArchiveError("bad magic")
    version = cur.u32()
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    config_len = cur.u32()
    try:
        config = json.loads(cur.take(config_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ArchiveError(f"bad config blob: {e}") from None
    if not isinstance(config, dict):
        raise ArchiveError(f"bad config blob: expected a JSON object, got "
                           f"{type(config).__name__}")
    count = cur.u32()

    state = {}
    for _ in range(count):
        try:
            name = cur.take(cur.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ArchiveError(f"tensor name is not UTF-8: {e}") from None
        tag = cur.u32()
        dtype = TAG_DTYPES.get(tag)
        if dtype is None:
            raise ArchiveError(f"unknown dtype tag {tag} for tensor {name!r}")
        rank = cur.u32()
        if rank > 8:
            raise ArchiveError(f"implausible rank {rank} for tensor {name!r}")
        shape = cur.u64s(rank)
        # a Python int: an int64 product of untrusted dims can overflow
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > len(body) - cur.pos:
            raise ArchiveError(f"tensor {name!r} of shape {shape} needs {nbytes} "
                               f"bytes, {len(body) - cur.pos} remain")
        arr = np.frombuffer(cur.take(nbytes), dtype=dtype.newbyteorder("<"))
        try:
            state[name] = arr.astype(dtype).reshape(shape)
        except ValueError as e:                        # empty, but dims too large
            raise ArchiveError(f"bad shape {shape} for tensor {name!r}: {e}") from None
    if cur.pos != len(body):
        raise ArchiveError("trailing bytes after last tensor")
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
    """Rebuild the archived model and restore its weights."""
    config, state = load_archive(path)
    dtypes = {v.dtype for v in state.values() if v.dtype.kind == "f"}
    dtype = np.float64 if np.dtype("float64") in dtypes else np.float32
    try:
        net = Network(ModelSpec.from_config(config), rng=np.random.default_rng(0),
                      dtype=dtype)
    except (KeyError, OverflowError, TypeError, ValueError) as e:
        raise ArchiveError(f"bad model config: {e}") from None
    restore_state(net, state)
    return net
