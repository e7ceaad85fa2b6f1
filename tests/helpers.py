"""Shared test utilities."""

import json
import math
import struct
import zlib

import numpy as np
from reference import finite_difference_check, shift_fusions, sigmoid_coefficients

from micronet.analysis import trace_costs
from micronet.weights_io import TAG_DTYPES


def assert_grads(loss_fn, named_params, probes=12, rtol=1e-5, atol=1e-8,
                 seed=0, step=1e-6):
    """All sampled analytic gradients must match central differences."""
    results = finite_difference_check(
        loss_fn, named_params, probes=probes, rtol=rtol, atol=atol,
        step=step, rng=np.random.default_rng(seed))
    bad = [r for r in results if not r.ok]
    assert not bad, f"{len(bad)}/{len(results)} probes off, first: {bad[:3]}"


def traced_madds(layer, x):
    """Per-image multiply-adds of one eval forward of layer on x."""
    return sum(r.madds for r in trace_costs(layer, x))


def away_from_zero(x, margin=1e-2):
    """Push values off the origin so kink points (relu, max against 0)
    cannot flip under finite-difference perturbation."""
    return x + np.sign(x) * margin


def fusion_margin(layer, x):
    """Smallest winner-vs-runner-up gap of a DyShiftMax over input x.
    A margin well above the FD step keeps the max branch stable."""
    if layer.num_fusions == 1:
        return np.inf
    fus = shift_fusions(x, sigmoid_coefficients(layer, x), layer.groups)
    srt = np.sort(fus, axis=0)
    return float((srt[-1] - srt[-2]).min())


def reseal(body: bytes) -> bytes:
    """An archive body followed by its correct checksum."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def seal_archive(config: bytes, records=()) -> bytes:
    """A version-1 weight archive with the given raw config blob and raw
    tensor records, and a correct checksum."""
    body = b"MNWT" + struct.pack("<II", 1, len(config)) + config
    return reseal(body + struct.pack("<I", len(records)) + b"".join(records))


def tensor_record(name: bytes, tag: int, dims, payload=b"") -> bytes:
    """One raw archive record: name, dtype tag, rank, dims, payload."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<II", tag, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


# with_config's value that deletes the entry at its path
DELETE = object()


def with_config(archive: bytes, path, value) -> bytes:
    """archive with one field of its model config replaced, or deleted if
    value is DELETE, and the checksum redone; path is the keys and list
    indices down to the field."""
    (size,) = struct.unpack_from("<I", archive, 8)
    config = json.loads(archive[12:12 + size])
    owner = config
    for key in path[:-1]:
        owner = owner[key]
    if value is DELETE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    blob = json.dumps(config).encode()
    return reseal(archive[:8] + struct.pack("<I", len(blob)) + blob
                  + archive[12 + size:-4])


def repeat_first_record(archive: bytes) -> bytes:
    """archive with its first tensor record stated again right after it,
    the tensor count raised by one and the checksum redone."""
    (size,) = struct.unpack_from("<I", archive, 8)
    (count,) = struct.unpack_from("<I", archive, 12 + size)
    start = 16 + size
    (name_len,) = struct.unpack_from("<I", archive, start)
    tag, rank = struct.unpack_from("<II", archive, start + 4 + name_len)
    dims = struct.unpack_from(f"<{rank}Q", archive, start + 12 + name_len)
    end = (start + 12 + name_len + 8 * rank
           + math.prod(dims) * TAG_DTYPES[tag].itemsize)
    return reseal(archive[:12 + size] + struct.pack("<I", count + 1)
                  + archive[start:end] + archive[start:-4])
