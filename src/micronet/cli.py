"""Command-line interface.

Subcommands: analyze, verify, infer, train, bench, sweep. Exit codes:
0 success, 1 verification failure, 2 usage or configuration error,
3 missing or unreadable input file, 4 malformed archive or dataset (a
dataset also with no images, images not 3-channel or without pixels, or
a non-finite pixel, and for train a label past its class bound). An
output path that cannot be written, a closed stdout, and a request too
large to allocate (out of memory), are usage errors (2). Every error ends
with one line on stderr. Where --seed is omitted, the seed is 0.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import analysis
from .data import DatasetError, load_dataset, save_dataset
from .models import VARIANTS, build_model, model_spec
from .module import Context
from .tensor import no_grad
from .train import NonFiniteError, evaluate, make_synthetic, train_model
from .weights_io import ArchiveError, load_model, save_weights

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_FORMAT = 4

# BLAS and OpenMP read these when numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class OutputError(Exception):
    """An output path that could not be written (exit 2)."""


@contextmanager
def _writing(path):
    """Report an OSError raised in the block as an OutputError naming path."""
    try:
        yield
    except OSError as e:
        raise OutputError(f"cannot write {e.filename or path}: {e.strerror or e}") from e


@contextmanager
def _stdout():
    """Flush stdout when the block ends, even by an exception (argparse's
    --help exits after a write it does not flush); a failed write is an
    OutputError."""
    with _writing("<stdout>"):
        try:
            try:
                yield
            finally:
                sys.stdout.flush()
        except OSError:
            # else the interpreter's own flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _print(text: str) -> None:
    """Print text to stdout now; a failed write is an OutputError."""
    with _stdout():
        print(text)


def _emit(args, payload: dict, text: str) -> None:
    """Print the report, as JSON with --json, or write it to the --output
    file of a report command."""
    out = analysis.format_json(payload) if args.json else text
    if getattr(args, "report", None):
        with _writing(args.report), open(args.report, "w") as fh:
            fh.write(out + "\n")
    else:
        _print(out)


def _load_nonempty(directory):
    """load_dataset, refusing a dataset that no network can read: one
    without images (accuracy and the training loss are means over the
    images), of images that are not 3-channel or hold no pixels, or with a
    non-finite pixel."""
    images, labels = load_dataset(directory)
    _, c, h, w = images.shape
    if not len(labels):
        raise DatasetError(f"{directory}: the dataset holds no images")
    if c != 3:
        raise DatasetError(f"{directory}: expected 3-channel images, got {c}")
    if not h * w:
        raise DatasetError(f"{directory}: the images hold no pixels ({h}x{w})")
    # min and max propagate NaN and reach any infinity, with no mask of the images
    if not (np.isfinite(images.min()) and np.isfinite(images.max())):
        raise DatasetError(f"{directory}: the images hold non-finite values")
    return images, labels


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    net = build_model(args.variant, seed=0)
    report = analysis.count_costs(net, args.resolution)
    budget = analysis.check_budget(report)
    lines = [report.format_table()]
    payload = report.to_json()
    if budget:
        payload["budget"] = budget
    for row in budget:
        verdict = "within" if row["within"] else "OUTSIDE"
        lines.append(f"{row['metric']}: {row['value']:,} vs target {row['target']:,} "
                     f"({verdict} {analysis.BUDGET_TOLERANCE:.0%})")
    lines.append(f"dynamic activation share: {report.dynamic_madds:,} madds, "
                 f"{report.dynamic_params:,} params")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


# each list of verify_model's report: the flag of a row, its line
_VERIFY_LINES = (("budget", "within", "budget {metric}: {value:,} vs {target:,}"),
                 ("rank_law", "ok", "rank law {layer}: worst ratio {worst_ratio:.2e}"),
                 ("connectivity", "ok",
                  "connectivity {layer}: {paths_per_output} paths/output"),
                 ("factorization", "ok", "factorization {layer}: max err {max_error:.2e}"))


def cmd_verify(args) -> int:
    net = build_model(args.variant, seed=args.seed, dtype=np.float64)
    report = analysis.verify_model(net, np.random.default_rng(args.seed))
    lines = [text.format(**row) + (" -> ok" if row[flag] else " -> FAIL")
             for key, flag, text in _VERIFY_LINES for row in report[key]]
    lines.append("PASS" if report["passed"] else "FAIL")
    _emit(args, report, "\n".join(lines))
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_infer(args) -> int:
    net = load_model(args.weights)
    images, labels = _load_nonempty(args.data)
    preds = []
    with no_grad():
        for start in range(0, len(images), args.batch_size):
            logits = net(images[start:start + args.batch_size],
                         Context(training=False))
            preds.extend(int(i) for i in logits.data.argmax(axis=1))
    preds = np.asarray(preds)
    correct = int((preds == labels).sum())
    acc = correct / len(labels)
    shown = preds[:args.limit].tolist()
    payload = {
        "schema": "micronet.infer/1",
        "variant": net.spec.name,
        "count": len(preds),
        "accuracy": acc,
        "predictions": shown,
    }
    text = (f"{net.spec.name}: {len(preds)} images, accuracy {acc:.4f}\n"
            f"first predictions: {shown}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_train(args) -> int:
    if args.data:
        images, labels = _load_nonempty(args.data)
        # the head gets a class per label value, so one stray label would size it
        bound = max(model_spec(args.variant).num_classes, len(labels))
        if labels.max() >= bound:
            raise DatasetError(f"{args.data}: label {labels.max()} needs more than {bound} "
                               f"classes, the larger of {args.variant}'s and one per image")
    else:
        images, labels = make_synthetic(args.synthetic, seed=args.seed)
    classes = int(labels.max()) + 1
    net = build_model(args.variant, num_classes=max(classes, 2),
                      seed=args.seed, dtype=np.float64)
    # a non-finite loss or gradient ends training with a NonFiniteError,
    # which names where it happened; numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        history = train_model(
            net, images, labels, epochs=args.epochs, base_lr=args.lr,
            batch_size=args.batch_size, momentum=args.momentum,
            weight_decay=args.weight_decay, seed=args.seed,
            target_accuracy=args.target_accuracy,
            log=None if args.json else lambda s: _print(
                f"epoch {s.epoch:3d}  lr {s.lr:.5f}  loss {s.loss:.4f}  "
                f"acc {s.accuracy:.4f}  {s.seconds:.2f}s"))
        eval_loss, eval_acc = evaluate(net, images, labels)
    if not np.isfinite(eval_loss):
        # the last update can leave weights that overflow at eval time
        raise NonFiniteError(history[-1].epoch, None, "evaluation loss")
    if args.output:
        with _writing(args.output):
            save_weights(args.output, net)
    payload = {
        "schema": "micronet.train/1",
        "variant": args.variant,
        "seed": args.seed,
        "epochs_run": len(history),
        "final": {"loss": history[-1].loss, "accuracy": history[-1].accuracy},
        "eval": {"loss": eval_loss, "accuracy": eval_acc},
        "weights": args.output,
        "history": [
            {"epoch": s.epoch, "lr": s.lr, "loss": s.loss,
             "accuracy": s.accuracy, "seconds": s.seconds} for s in history
        ],
    }
    text = (f"trained {args.variant} for {len(history)} epochs: "
            f"train acc {history[-1].accuracy:.4f}, eval acc {eval_acc:.4f}"
            + (f"\nsaved weights to {args.output}" if args.output else ""))
    _emit(args, payload, text)
    return EXIT_OK


def _running_threads() -> int | None:
    """Threads of this process, or None where /proc is not available."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _bench_env() -> dict:
    """Versions, BLAS build and thread settings that a latency depends on."""
    a = np.ones((64, 64))
    a @ a       # OpenBLAS starts its pool, if any, on first use
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas")
    except TypeError:   # numpy < 1.26 only prints its configuration
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "threads_running": _running_threads(),
    }


def cmd_bench(args) -> int:
    env = _bench_env()
    running = env["threads_running"]
    if running is not None and running > 1:
        raise ValueError(f"unpinned: {running} threads run after a BLAS call; "
                         f"set {THREAD_VARS[0]}=1 to time one thread")
    net = build_model(args.variant, seed=args.seed)
    x = np.random.default_rng(args.seed).standard_normal(
        (1, 3, args.resolution, args.resolution)).astype(net.dtype)
    times = []
    with no_grad():
        for i in range(args.warmup + args.repeats):
            t0 = time.perf_counter()
            net(x, Context(training=False))
            dt = time.perf_counter() - t0
            if i >= args.warmup:
                times.append(dt * 1000.0)
    times = np.asarray(times)
    payload = {
        "schema": "micronet.bench/1",
        "variant": args.variant,
        "resolution": args.resolution,
        "warmup": args.warmup,
        "repeats": args.repeats,
        "mean_ms": float(times.mean()),
        "median_ms": float(np.median(times)),
        "p95_ms": float(np.percentile(times, 95)),
        "min_ms": float(times.min()),
        "max_ms": float(times.max()),
        "env": env,
    }
    text = (f"{args.variant} @ {args.resolution}: mean {payload['mean_ms']:.2f} ms, "
            f"median {payload['median_ms']:.2f} ms, p95 {payload['p95_ms']:.2f} ms "
            f"({args.repeats} runs, {args.warmup} warmup excluded)")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    sweep = analysis.sweep_tradeoff(args.budget, args.reduction,
                                    args.max_groups)
    _emit(args, sweep, analysis.format_sweep(sweep))
    return EXIT_OK


def cmd_dataset(args) -> int:
    images, labels = make_synthetic(args.count, size=args.size,
                                    seed=args.seed)
    with _writing(args.output):
        save_dataset(args.output, images, labels)
    payload = {"schema": "micronet.dataset/1", "count": args.count,
               "size": args.size, "directory": args.output}
    _emit(args, payload, f"wrote {args.count} synthetic images to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exits with EXIT_USAGE."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        # argparse drops a failed write; --help into a closed stdout must
        # raise, or an unbuffered stdout (PYTHONUNBUFFERED) exits 0 silently
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _at_least(minimum: int, maximum: int | None = None):
    """argparse type: an integer from minimum up to maximum, if given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value
    return parse


def _real(accept, requirement: str):
    """argparse type: a float for which accept holds, described by requirement
    (every comparison with NaN is false, so a bound rejects it)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    return parse


_positive = _at_least(1)
_non_negative = _at_least(0)
# analyze and bench run float32 forwards at this size: M3 peaks at about
# 101 MB at 1024x1024
_resolution = _at_least(1, 1024)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="micronet",
        description="Cost analysis, verification, training and inference "
                    "for micro-factorized networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        p.add_argument("--output", dest="report", help="write the report to a file")

    p = sub.add_parser("analyze", help="per-layer madds/params table")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--resolution", type=_resolution, default=224)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="structural checks and budgets")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("infer", help="classify a dataset with saved weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--batch-size", type=_positive, default=64)
    p.add_argument("--limit", type=_positive, default=10,
                   help="number of predictions to print")
    common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train a variant and save weights")
    p.add_argument("--variant", choices=VARIANTS, default="tiny")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--data", help="dataset directory")
    group.add_argument("--synthetic", type=_positive, default=128, metavar="N",
                       help="train on N generated images")
    p.add_argument("--epochs", type=_positive, default=30)
    p.add_argument("--lr", type=_real(lambda v: 0 < v < np.inf, "finite and positive"),
                   default=0.05)
    p.add_argument("--batch-size", type=_positive, default=16)
    p.add_argument("--momentum", type=_real(lambda v: 0 <= v < 1, "in [0, 1)"),
                   default=0.9)
    p.add_argument("--weight-decay", default=3e-5,
                   type=_real(lambda v: 0 <= v < np.inf, "finite and non-negative"))
    p.add_argument("--target-accuracy", type=_real(lambda v: not np.isnan(v), "a number"),
                   default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="weight archive path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="single-image latency")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--resolution", type=_resolution, default=224)
    p.add_argument("--repeats", type=_positive, default=200)
    p.add_argument("--warmup", type=_non_negative, default=50)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="connectivity/width trade-off table")
    p.add_argument("--budget", type=float, required=True,
                   help="pointwise madds per position")
    p.add_argument("--reduction", type=int, required=True)
    p.add_argument("--max-groups", type=_at_least(1, analysis.MAX_SWEEP_ROWS),
                   default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dataset", help="generate a synthetic dataset")
    p.add_argument("--count", type=_positive, default=128)
    p.add_argument("--size", type=_positive, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="target directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dataset)

    return parser


def main(argv=None) -> int:
    try:
        with _stdout():
            args = build_parser().parse_args(argv)
        return args.func(args)
    except OutputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        name = getattr(e, "filename", None) or e
        print(f"error: missing file: {name}", file=sys.stderr)
        return EXIT_MISSING
    except OSError as e:
        # every write goes through _writing, so this is an input that exists
        # but cannot be read, such as a directory given as a file
        what = f"{e.filename}: {e.strerror}" if e.filename else e
        print(f"error: cannot read {what}", file=sys.stderr)
        return EXIT_MISSING
    except (ArchiveError, DatasetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
