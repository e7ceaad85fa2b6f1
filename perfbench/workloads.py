"""Seeded inputs, the three workloads, and the checks of their outputs.

Every workload is a closed loop with one client in one single-threaded
process: the next request goes out only after the previous one returned.
A workload object generates its inputs from the seed when it is created
(untimed); ``setup`` is what a user pays before the first request; ``run``
sends requests for a number of seconds (``train_m0``: one training cycle);
``check`` verifies the outputs after the timed region. The package is
always called through its module attributes, so that a traced run sees
every call.

An untraced run states every time at a fixed reference speed of the host:
see ``SpeedProbe``.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import micronet
from micronet import data, train, weights_io

MIN_REQUESTS = 100      # a p90 then has at least 10 samples beyond it
# An untraced run sets up anew every SEGMENT_S seconds, so that set-up and
# requests both sample the phases of a shared machine's speed.
SEGMENT_S = 5.0
# float32 logits against a float64 build of the same seed: the largest
# difference over the largest |logit|. M0 and M3 measure below 1e-6.
LOGIT_RTOL = 1e-4

# The speed probe's time at the reference speed. On the 2-core host the
# benchmark was set on, the probe took 1.9-3.3 ms as the host's speed
# changed; 2 ms is its time in the host's fast phases.
PROBE_NOMINAL_S = 0.002
PROBE_WINDOW = 2        # a request is scaled by the probes of the 2 before
                        # and the 2 after it, and its own

B1_POOL = 16            # distinct images infer_b1 cycles through
B1_SAMPLES = 8          # images per model compared against float64
DATASET_IMAGES = 64     # infer_batch16 cycles through 4 batches
BATCH = 16

TRAIN_IMAGES = 128
TRAIN_SIZE = 64
TRAIN_ARGS = dict(epochs=10, base_lr=0.05, batch_size=16, momentum=0.9,
                  weight_decay=3e-5)
# Final-epoch training-set accuracy that train_model reports after
# TRAIN_ARGS; chance is 0.5. Some initializations sit at chance loss for
# three epochs: with 6 epochs 2 of about 190 cycles ended below 0.9, at
# 0.844 and 0.719, and 10 epochs bring the slower one to 0.938. In 32
# other draws 10 epochs gave at least 0.977.
ACCURACY_FLOOR = 0.75


class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.rows)


class SpeedProbe:
    """A fixed piece of work that calls no micronet code: an interpreter
    loop, small float32 matrix products and a pass over a 2 MB array.

    The shared host the benchmark was set on changes its speed by up to
    1.7x, in phases of seconds to minutes. A pure-Python loop, BLAS and
    memory-bound numpy slow by the same factor as the network, and CPU time
    slows with wall time. Medians over a run cannot average phases longer
    than the run, so an untraced run times this probe after every request
    and states each time at the reference speed, at which the probe takes
    PROBE_NOMINAL_S: time x PROBE_NOMINAL_S / (probe time next to it)."""

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((192, 192)).astype(np.float32)
        self.buf = np.ones(1 << 19, np.float32)
        for _ in range(5):
            self()

    def __call__(self) -> float:
        """Run the probe once and return its duration in seconds."""
        t0 = time.perf_counter()
        s = 0
        for i in range(10_000):
            s += i
        for _ in range(12):
            self.a @ self.a
        for _ in range(4):
            np.multiply(self.buf, 1.0, out=self.buf)
        return time.perf_counter() - t0


@dataclass
class Timing:
    """Latencies (s) of the requests that completed, failures of those
    that raised, and the images served in `busy_s` seconds of request
    time. `probes` holds, when a SpeedProbe ran, its time after each
    completed request."""
    latencies: list
    failures: list
    busy_s: float
    images: int
    per_model: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


def closed_loop(send, seconds: float, probe=None) -> tuple[list, list, list, float]:
    """Call send() back to back, at least once and until `seconds` passed,
    running `probe` after each request that completed; return latencies,
    failures, probe times and the time spent in send()."""
    latencies, failures, probes = [], [], []
    start = time.perf_counter()
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        try:
            send()
        except Exception:
            failures.append(traceback.format_exc(limit=3))
            busy += time.perf_counter() - t0
        else:
            latencies.append(time.perf_counter() - t0)
            busy += latencies[-1]
            if probe is not None:
                probes.append(probe())
        if time.perf_counter() - start >= seconds:
            return latencies, failures, probes, busy


def _eval_ctx():
    return micronet.Context(training=False)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _state_matches(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(_same_bits(got[k], want[k]) for k in want)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---------------------------------------------------------------------------

class InferB1:
    """Single-image eval requests. Each request is one 1x3x224x224 float32
    image sent to M0 and then, after M0 answered, to M3."""

    name = "infer_b1"
    throughput_name = "throughput_img_s"
    variants = {"models.m0": "M0", "models.m3": "M3"}
    resolution = 224

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.model_seeds = {p: int(rng.integers(2**31)) for p in self.variants}
        self.images = [rng.standard_normal((1, 3, 224, 224), dtype=np.float32)
                       for _ in range(B1_POOL)]
        self.outputs = {p: [] for p in self.variants}   # (image index, logits)
        self.sent = 0           # requests sent so far, over every run()
        self.io_bytes = {}

    def setup(self):
        return {p: micronet.build_model(v, seed=self.model_seeds[p])
                for p, v in self.variants.items()}

    def run(self, nets, seconds, checks, on_net=None, quiet=nullcontext,
            probe=None) -> Timing:
        if on_net is not None:
            for p, net in nets.items():
                on_net(net, p, self.resolution)
        per_model = {p: [] for p in nets}

        def send():
            i = self.sent % B1_POOL
            self.sent += 1
            for p, net in nets.items():
                t0 = time.perf_counter()
                y = net(self.images[i], _eval_ctx())
                per_model[p].append(time.perf_counter() - t0)
                self.outputs[p].append((i, y.data))

        with micronet.no_grad():
            lat, fails, probes, busy = closed_loop(send, seconds, probe)
        return Timing(lat, fails, busy, len(lat), per_model, probes)

    def check(self, nets, checks: Checks):
        for p, variant in self.variants.items():
            outs = self.outputs[p]
            bad = sum(y.shape != (1, 1000) or not np.isfinite(y).all()
                      for _, y in outs)
            checks.add(f"{p}.logits_finite", bad == 0,
                       f"{bad} of {len(outs)} outputs malformed")
            first = {}
            for i, y in outs:
                first.setdefault(i, y)
            ref_net = micronet.build_model(variant, seed=self.model_seeds[p],
                                           dtype=np.float64)
            with micronet.no_grad():
                for i in sorted(first)[:B1_SAMPLES]:
                    want = ref_net(self.images[i].astype(np.float64), _eval_ctx()).data
                    err = _relative_error(first[i], want)
                    checks.add(f"{p}.float64_match", err <= LOGIT_RTOL,
                               f"image {i}: relative error {err:.2e}")


class InferBatch16:
    """Offline classification the way `micronet infer` does it: load an
    M0 archive and a dataset of 224x224 float32 images, then evaluate in
    batches of 16."""

    name = "infer_batch16"
    throughput_name = "throughput_img_s"
    resolution = 224

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        net = micronet.build_model("M0", seed=int(rng.integers(2**31)))
        self.archive = workdir / "m0.mnwt"
        weights_io.save_weights(self.archive, net)
        self.state = {k: v.copy() for k, v in weights_io.collect_state(net).items()}
        self.images = rng.standard_normal((DATASET_IMAGES, 3, 224, 224),
                                          dtype=np.float32)
        self.labels = rng.integers(0, 1000, DATASET_IMAGES).astype(np.uint32)
        self.dataset = workdir / "dataset"
        data.save_dataset(self.dataset, self.images, self.labels)
        self.io_bytes = {
            "weights_io.load_archive": self.archive.stat().st_size,
            "data.load_dataset": sum(f.stat().st_size for f in self.dataset.iterdir()),
        }
        self.preds = []             # (batch start, argmax) of every request
        self.sent = 0               # requests sent so far, over every run()
        self.first_logits = {}      # batch start -> logits of its first request

    def setup(self):
        net = weights_io.load_model(self.archive)
        images, labels = data.load_dataset(self.dataset)
        return net, images, labels

    def run(self, state, seconds, checks, on_net=None, quiet=nullcontext,
            probe=None) -> Timing:
        net, images, _ = state
        if on_net is not None:
            on_net(net, "models.m0", self.resolution)
        starts = range(0, len(images), BATCH)
        served = [0]

        def send():
            s = starts[self.sent % len(starts)]
            self.sent += 1
            logits = net(images[s:s + BATCH], _eval_ctx()).data
            self.preds.append((s, logits.argmax(axis=1)))
            self.first_logits.setdefault(s, logits)
            served[0] += len(logits)

        with micronet.no_grad():
            lat, fails, probes, busy = closed_loop(send, seconds, probe)
        return Timing(lat, fails, busy, served[0], probes=probes)

    def check(self, state, checks: Checks):
        net, images, labels = state
        checks.add("archive_restores_bitwise",
                   _state_matches(weights_io.collect_state(net), self.state))
        checks.add("dataset_round_trip_bitwise",
                   _same_bits(images, self.images) and _same_bits(labels, self.labels))
        first = {}
        for s, p in self.preds:
            first.setdefault(s, p)
        repeats = sum(not np.array_equal(p, first[s]) for s, p in self.preds)
        checks.add("predictions_repeat", repeats == 0,
                   f"{repeats} of {len(self.preds)} batches changed")
        with micronet.no_grad():
            for i in range(len(images)):
                s = i - i % BATCH
                want = self.first_logits[s][i - s]
                got = net(images[i:i + 1], _eval_ctx()).data[0]
                err = _relative_error(got, want)
                checks.add("batched_equals_single",
                           got.argmax() == first[s][i - s] and err <= LOGIT_RTOL,
                           f"image {i}: relative error {err:.2e}")


@contextmanager
def _stamped_forward(net, stamps: list, probe=None, probes=None):
    """Record the time each forward pass starts: one training step each.
    With a probe, run it first and record its time in `probes`."""
    own = vars(net).get("forward")
    inner = net.forward

    def forward(x, ctx=None):
        if probe is not None:
            probes.append(probe())
        stamps.append(time.perf_counter())
        return inner(x, ctx)

    net.forward = forward
    try:
        yield
    finally:
        if own is None:
            del net.forward
        else:
            net.forward = own


class TrainM0:
    """train_model on M0 at 64x64 float64, two classes, batch 16, for a
    fixed number of epochs, then save_weights. A request is one training
    step; one call of run() trains one freshly built network."""

    name = "train_m0"
    throughput_name = "train_img_s"
    resolution = TRAIN_SIZE

    def __init__(self, seed: int, workdir):
        self.rng = np.random.default_rng(seed)
        self.images, self.labels = train.make_synthetic(
            TRAIN_IMAGES, size=TRAIN_SIZE, seed=int(self.rng.integers(2**31)))
        self.archive = workdir / "m0_trained.mnwt"
        self.io_bytes = {}
        self.spent = []         # networks already trained

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def setup(self):
        return micronet.build_model("M0", num_classes=2, dtype=np.float64,
                                    seed=self._seed())

    def run(self, net, seconds, checks, on_net=None, quiet=nullcontext,
            probe=None) -> Timing:
        """Train one cycle, whatever `seconds` is: train_model, then
        save_weights, then the checks of the cycle (untimed). A network
        trains once; when `net` has trained already, a new one is built.
        A probe runs before each step's forward pass and after the cycle;
        its time is taken out of the step before it."""
        if any(n is net for n in self.spent):
            net = self.setup()
        self.spent.append(net)
        if on_net is not None:
            on_net(net, "models.m0", self.resolution)
        stamps, probes = [], []
        t0 = time.perf_counter()
        try:
            with _stamped_forward(net, stamps, probe, probes):
                history = train.train_model(net, self.images, self.labels,
                                            seed=self._seed(), **TRAIN_ARGS)
            t1 = time.perf_counter()
            weights_io.save_weights(self.archive, net)
            t2 = time.perf_counter()
        except Exception:
            return Timing([], [traceback.format_exc(limit=3)], 0.0, 0)
        inside = sum(probes)        # each ran inside train_model, before a step
        steps = np.diff(stamps + [t1])
        if probe is not None:
            probes = probes[1:] + [probe()]     # the probe after each step
            steps[:-1] -= probes[:-1]
        self.io_bytes["weights_io.save_weights"] = self.archive.stat().st_size
        with quiet():
            self._check_cycle(net, history, checks)
        return Timing(steps.tolist(), [], t2 - t0 - inside,
                      TRAIN_ARGS["epochs"] * len(self.labels), probes=probes)

    def _check_cycle(self, net, history, checks: Checks):
        losses = [s.loss for s in history]
        checks.add("losses_finite", len(history) == TRAIN_ARGS["epochs"]
                   and bool(np.isfinite(losses).all()), f"losses {losses}")
        final = history[-1].accuracy
        # evaluate() uses the batch-norm running statistics, which can lag
        # the weights after 80 steps; it is reported, not checked
        _, acc = train.evaluate(net, self.images, self.labels)
        checks.add("train_accuracy_floor", final >= ACCURACY_FLOOR,
                   f"final-epoch accuracy {final:.4f} vs floor {ACCURACY_FLOOR}; "
                   f"evaluate() accuracy {acc:.4f}")
        config, state = weights_io.load_archive(self.archive)
        checks.add("saved_archive_bitwise",
                   config == net.spec.to_config()
                   and _state_matches(state, weights_io.collect_state(net)))

    def check(self, state, checks: Checks):
        pass    # each cycle is checked in run(), right after it ends


WORKLOADS = {w.name: w for w in (InferB1, InferBatch16, TrainM0)}


# ---------------------------------------------------------------------------

def _p(values: list, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else float("nan")


def _at_reference(t: Timing) -> Timing:
    """`t` at the reference speed. Each request is scaled by the median of
    the probes around it; the block's request time by its median probe."""
    if not t.probes:
        return t
    p = np.asarray(t.probes)
    scale = [PROBE_NOMINAL_S / np.median(p[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
             for i in range(len(p))]
    return Timing([x * f for x, f in zip(t.latencies, scale)], t.failures,
                  t.busy_s * PROBE_NOMINAL_S / np.median(p), t.images,
                  {m: [x * f for x, f in zip(lat, scale)] for m, lat in t.per_model.items()},
                  t.probes)


def _merge(timings: list) -> Timing:
    per_model = {}
    for t in timings:
        for p, lat in t.per_model.items():
            per_model.setdefault(p, []).extend(lat)
    return Timing([x for t in timings for x in t.latencies],
                  [f for t in timings for f in t.failures],
                  sum(t.busy_s for t in timings), sum(t.images for t in timings),
                  per_model, [x for t in timings for x in t.probes])


def end_to_end(timing: Timing, setup_s: list) -> dict:
    """The end-to-end metrics of `timing` and the set-up times `setup_s`."""
    return {
        "latency_p50_ms": _p(timing.latencies, 50),
        "latency_p90_ms": _p(timing.latencies, 90),
        "throughput_img_s": timing.images / timing.busy_s if timing.busy_s else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


@dataclass
class Result:
    metrics: dict           # every metric the run produced, by name
    extra: dict             # context for the detail line
    checks: Checks
    attempted: int
    failed: int


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir) -> Result:
    wl = WORKLOADS[name](seed, workdir)
    checks = Checks()
    extra = {}
    if not trace:
        probe = SpeedProbe()
        timings, setup_s, setup_ref_s, segments = [], [], [], []
        start = time.perf_counter()
        while True:
            p0 = probe()
            t0 = time.perf_counter()
            state = wl.setup()
            setup_s.append(time.perf_counter() - t0)
            setup_ref_s.append(setup_s[-1] * PROBE_NOMINAL_S / ((p0 + probe()) / 2))
            left = seconds - (time.perf_counter() - start)
            timings.append(wl.run(state, min(SEGMENT_S, left), checks, probe=probe))
            segments.append({"setup_s": setup_s[-1], "requests": len(timings[-1].latencies),
                             "latency_p50_ms": _p(timings[-1].latencies, 50),
                             "probe_p50_ms": _p(timings[-1].probes, 50)})
            done = sum(len(t.latencies) for t in timings)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and done >= MIN_REQUESTS) or elapsed >= 3 * seconds:
                break
        timing = _merge([_at_reference(t) for t in timings])
        metrics = end_to_end(timing, setup_ref_s)
        metrics[wl.throughput_name] = metrics["throughput_img_s"]
        for p, lat in timing.per_model.items():
            short = p.split(".")[-1]
            metrics[f"{short}.latency_p50_ms"] = _p(lat, 50)
            metrics[f"{short}.latency_p90_ms"] = _p(lat, 90)
            extra[f"{short}.requests"] = len(lat)
        setups = len(setup_s)
        extra["segments"] = segments
        # the same metrics in wall-clock time, at the host's speed of the run
        extra["wall_clock"] = end_to_end(_merge(timings), setup_s)
        extra["probe_ms"] = {"p10": _p(timing.probes, 10), "p50": _p(timing.probes, 50),
                             "p90": _p(timing.probes, 90), "nominal": PROBE_NOMINAL_S * 1e3}
    else:
        import tracing
        tracer = tracing.Tracer()
        blocks = {False: [], True: []}      # traced? -> Timings
        try:
            ops = tracing.instrument(tracer)
            join = tracing.CostJoin(tracer)
            state = wl.setup()
            setups = 1
            setup_spans = tracer.take()
            start = time.perf_counter()
            # one untraced request, then one traced: both sides see the
            # same phases of a shared machine's speed
            while time.perf_counter() - start < seconds:
                with tracer.detached():
                    blocks[False].append(wl.run(state, 0, checks))
                blocks[True].append(wl.run(state, 0, checks, join.attach,
                                           tracer.detached))
            loop_spans = tracer.take()
        finally:
            tracer.close()
        untraced, traced = (_merge(blocks[k]) for k in (False, True))
        timings = [untraced, traced]
        untraced_p50, traced_p50 = _p(untraced.latencies, 50), _p(traced.latencies, 50)
        model_blocks = {p: len(micronet.model_spec(v).blocks)
                        for p, v in InferB1.variants.items()}
        metrics, joined = tracing.layer_metrics(
            setup_spans, loop_spans, ops, join, len(traced.latencies),
            wl.io_bytes, untraced_p50, traced_p50, model_blocks)
        extra.update(joined)
        extra["untraced_latency_p50_ms"] = untraced_p50
        extra["traced_latency_p50_ms"] = traced_p50
        extra["traced_requests"] = len(traced.latencies)
        for p, t in joined["table"].items():
            # unit times plus outside, per request, against the untraced p50
            lat = untraced.per_model.get(p, untraced.latencies)
            extra[f"{p}.untraced_latency_p50_ms"] = _p(lat, 50)
            extra[f"{p}.traced_forward_ms"] = t["forward_ns"] / 1e6 / len(traced.latencies)
    wl.check(state, checks)
    failures = [f for t in timings for f in t.failures]
    extra["requests"] = sum(len(t.latencies) for t in timings)
    extra["request_failures"] = failures[:5]
    attempted = setups + sum(t.attempted for t in timings) + len(checks.rows)
    failed = len(failures) + checks.failed
    return Result(metrics, extra, checks, attempted, failed)
