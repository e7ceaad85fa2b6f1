"""Shared test utilities."""

import json
import struct
import zlib

import numpy as np

from micronet.analysis import trace_costs
from micronet.train import finite_difference_check


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
    from micronet.dyshiftmax import reference_eval

    candidates = []
    keep = layer.num_fusions
    for k in range(keep):
        probe = _single_fusion(layer, x, k)
        candidates.append(probe)
    stacked = np.stack(candidates)
    srt = np.sort(stacked, axis=0)
    if keep == 1:
        return np.inf
    return float((srt[-1] - srt[-2]).min())


def sigmoid_coefficients(layer, x):
    """A DyShiftMax layer's coefficients (N, C, J, K) by the sigmoid
    formula of reference_eval."""
    n, c = x.shape[:2]
    z = x.mean(axis=(2, 3))
    hid = np.maximum(z @ layer.fc1_w.data.T + layer.fc1_b.data, 0)
    raw = hid @ layer.fc2_w.data.T + layer.fc2_b.data
    sig = 1.0 / (1.0 + np.exp(-raw))
    return (2.0 * layer.coeff_scale * sig - layer.coeff_scale).reshape(
        n, c, layer.num_shifts, layer.num_fusions) + layer.init_bias[None, None]


def _single_fusion(layer, x, k):
    c = x.shape[1]
    stride = c // layer.groups
    a = sigmoid_coefficients(layer, x)
    acc = np.zeros_like(x)
    for j in range(layer.num_shifts):
        shifted = np.roll(x, -(j * stride) % c, axis=1)
        acc += a[:, :, j, k][:, :, None, None] * shifted
    return acc


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


def with_config(archive: bytes, path, value) -> bytes:
    """archive with one field of its model config replaced and the checksum
    redone; path is the keys and list indices down to the field."""
    (size,) = struct.unpack_from("<I", archive, 8)
    config = json.loads(archive[12:12 + size])
    owner = config
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    blob = json.dumps(config).encode()
    return reseal(archive[:8] + struct.pack("<I", len(blob)) + blob
                  + archive[12 + size:-4])
