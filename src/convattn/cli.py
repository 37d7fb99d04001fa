"""Command-line entry point.

Subcommands: train, reparam-check, fourier, schedule, interp. Every run
writes a manifest before doing work and finalizes it with a status and a
finish time on every exit path, so no artifact exists without a manifest
accounting for it.

SIGTERM and SIGINT stop a run the same way: its manifest is finalized
with status ``interrupted`` and an error naming the signal.

Exit codes: 0 success, 1 reparam-check failure, 2 config/usage error,
3 data error or unreadable file, 4 training divergence, 5 interrupted by
SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .blocks import ConvMixer
from .checkpoint import (CheckpointError, config_from_checkpoint, load_checkpoint, model_from_checkpoint,
                         read_container, write_file)
from .config import ConfigError, PRESETS, TrainConfig, apply_overrides, build_train_config, load_config_file, load_preset
from .data import DataError
from .reparam import reparameterize, verify_equivalence
from .runtime import describe as describe_runtime
from .schedule import KINDS, SwitchSchedule, switch_epochs
from .spectral import (TARGET_FREQS, DepthProfile, channel_maps, delta_log_amplitude, depth_profile,
                       depth_profile_rows, require_targets, spectrum_of_maps, write_csv, write_depth_profile_csv)
from .tensor import ShapeError, Tensor
from .train import DivergenceError, load_dataset, probe_batch, run_interpolation_suite, train

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_INTERRUPTED = 5


class Interrupted(BaseException):
    """Raised in the main thread on SIGTERM or SIGINT. Not an Exception, so
    no ``except Exception`` on the way up swallows it."""


def _raise_interrupted(signum, frame):
    raise Interrupted(f"stopped by {signal.Signals(signum).name}")


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seed: int | None
    out_dir: str
    started_at: str
    version: str = __version__
    status: str = "running"
    finished_at: str | None = None
    artifacts: dict = field(default_factory=dict)
    error: str | None = None
    runtime: dict = field(default_factory=dict)

    def write(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        text = json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        write_file(os.path.join(self.out_dir, "manifest.json"), [text.encode("utf-8")])


def _timestamp() -> str:
    return time.strftime("%Y%m%dT%H%M%S")


def _new_manifest(command: str, argv: list[str], config: TrainConfig | None, out_dir: str | None) -> RunManifest:
    """A manifest for a run of ``config``; None for a run that reads no
    config, whose manifest records an empty config and a null seed."""
    seed = None if config is None else config.seed
    out_dir = out_dir or os.path.join("runs", f"{command}-{_timestamp()}-seed{seed}")
    return RunManifest(command, argv, {} if config is None else config.to_dict(), seed, out_dir, _timestamp(),
                       runtime=describe_runtime())


def _resolve_config(args) -> TrainConfig:
    mapping: dict = {}
    if args.preset:
        mapping.update(load_preset(args.preset))
    if args.config:
        mapping.update(load_config_file(args.config))
    mapping = apply_overrides(mapping, args.set)
    if getattr(args, "data_dir", None):
        mapping["data_dir"] = args.data_dir
    return build_train_config(mapping)


# Documented failures: exception type -> manifest status, exit code and
# message prefix. The first match wins, so subclasses precede their bases
# (ConfigError and ShapeError are ValueErrors).
_FAILURES = (
    (ConfigError, "failed", EXIT_CONFIG, "config error"),
    (DataError, "failed", EXIT_DATA, "data error"),
    (ShapeError, "failed", EXIT_DATA, "geometry mismatch"),
    ((CheckpointError, OSError), "failed", EXIT_DATA, "file error"),
    (ValueError, "failed", EXIT_CONFIG, "error"),
    (DivergenceError, "diverged", EXIT_DIVERGED, "diverged"),
    (Interrupted, "interrupted", EXIT_INTERRUPTED, "interrupted"),
)


def _failure(exc: BaseException) -> tuple[str, int] | None:
    """Report a documented failure on stderr and return its (status, exit
    code); None for any other exception."""
    for types, status, code, prefix in _FAILURES:
        if isinstance(exc, types):
            print(f"{prefix}: {exc}", file=sys.stderr)
            return status, code
    return None


def _run(manifest: RunManifest, work) -> int:
    """Write ``manifest``, call ``work()``, and finalize the manifest with
    ``status`` and ``finished_at`` on every exit path.

    A documented failure returns its exit code; any other exception is
    recorded as failed and re-raised.
    """
    manifest.write()
    manifest.status = "failed"
    try:
        work()
        manifest.status = "completed"
        return EXIT_OK
    except (Exception, Interrupted) as exc:
        manifest.error = str(exc)
        failure = _failure(exc)
        if failure is None:
            raise
        manifest.status, code = failure
        return code
    finally:
        manifest.finished_at = _timestamp()
        manifest.write()


def _profile_note(profile: DepthProfile, grid_hw: tuple[int, int]) -> str | None:
    """The manifest note for a profile that reports only some standard frequencies."""
    n, total = len(profile.targets), len(TARGET_FREQS)
    return None if n == total else f"grid {grid_hw[0]}x{grid_hw[1]} populates only {n} of {total} standard frequencies"


# --------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    config = _resolve_config(args)
    manifest = _new_manifest("train", args.argv, config, args.out)

    def work() -> None:
        result = train(config, out_dir=manifest.out_dir, resume_from=args.resume_from)
        manifest.artifacts["metrics"] = result.metrics_path
        manifest.artifacts["checkpoint"] = result.checkpoint_path
        if result.profile is not None:
            manifest.artifacts["depth_profile"] = result.profile_path
            note = _profile_note(result.profile, config.grid_hw())
            if note is not None:
                manifest.artifacts["depth_profile_note"] = note
        done = f"done: {len(result.metrics)} epochs"
        if result.metrics:  # a finished run resumed from an empty history trains and records none
            last = result.metrics[-1]
            done += f", top1 {last['top1']:.2f}, top5 {last['top5']:.2f}"
        print(done)

    return _run(manifest, work)


# --------------------------------------------------------------------------
# reparam-check


def cmd_reparam_check(args) -> int:
    try:
        h_t, w_t = (int(p) for p in args.grid.lower().split("x"))
    except ValueError:
        print(f"--grid must look like 8x8, got {args.grid!r}", file=sys.stderr)
        return EXIT_CONFIG
    rng = np.random.default_rng(args.seed)
    kernel = Tensor(rng.normal(0.0, 0.1, (args.kernel_size, args.kernel_size, args.dim, args.dim)))
    bias = Tensor(rng.normal(0.0, 0.1, args.dim))
    try:  # an even kernel, or one wider than the grid, is a usage error here
        conv = ConvMixer(kernel, bias)
        attn = reparameterize(conv, (h_t, w_t), beta=args.beta)
    except ShapeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.perturb:
        attn.w_o.data[0, 0, 0] += args.perturb
    report = verify_equivalence(conv, attn, num_samples=args.samples, tolerance=args.tol,
                                seed=args.seed + 1)
    print(report.to_json(indent=2))
    return EXIT_OK if report.passed else EXIT_FAIL


# --------------------------------------------------------------------------
# fourier


def cmd_fourier(args) -> int:
    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    if args.feature_dump:  # the dump stands alone: the checkpoint only names the default --out
        manifest = _new_manifest("fourier", args.argv, None, out_dir)
    else:
        header, tensors = load_checkpoint(args.checkpoint)
        model, config = model_from_checkpoint(header, tensors), config_from_checkpoint(header)
        manifest = _new_manifest("fourier", args.argv, config, out_dir)
    manifest.artifacts["tap"] = args.tap

    def work() -> None:
        if args.feature_dump:
            _, dump_tensors = read_container(args.feature_dump)
            rows = []
            for name in sorted(dump_tensors):
                maps = dump_tensors[name]
                if maps.ndim not in (2, 3, 4):
                    raise ShapeError(f"feature dump tensor {name!r} has shape {maps.shape}; "
                                     "expected [h, w], [n, h, w] or [B, h, w, d]")
                if maps.ndim == 4:
                    maps = channel_maps(maps)
                targets, width = require_targets(*maps.shape[-2:], args.bin_width)
                profile = spectrum_of_maps(maps, bin_width=width)
                rows += [(name, f, delta_log_amplitude(profile, f)) for f in targets]
            path = os.path.join(manifest.out_dir, "feature_dump_profile.csv")
            write_csv(path, "map,f,delta_log_amp", rows)
            manifest.artifacts["profile"] = path
            return
        require_targets(*config.grid_hw(), args.bin_width)  # a grid with no target exits before any image loads
        if args.random_batch:
            rng = np.random.default_rng(config.seed)
            images = rng.random((args.random_batch, *config.image_hw, config.in_channels)).astype(np.float32)
        else:
            data_config = replace(config, data_dir=args.data) if args.data else config
            images = load_dataset(data_config, "test").images
        # rebinding drops the raw batch before the forward
        images = probe_batch(config, images, args.random_batch or args.batch)
        profile = depth_profile(model, images, tap=args.tap, bin_width=args.bin_width)
        csv_path = os.path.join(manifest.out_dir, "depth_profile.csv")
        write_depth_profile_csv(csv_path, profile)
        note = _profile_note(profile, config.grid_hw())
        if note is not None:
            manifest.artifacts["note"] = note
        json_path = os.path.join(manifest.out_dir, "depth_profile.json")
        write_file(json_path, [json.dumps(profile.to_dict(), indent=2).encode("utf-8")])
        manifest.artifacts["csv"] = csv_path
        manifest.artifacts["json"] = json_path

    return _run(manifest, work)


# --------------------------------------------------------------------------
# schedule


def cmd_schedule(args) -> int:
    try:
        sched = SwitchSchedule(args.epochs, args.layers, args.kind, args.e_switch)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    table = switch_epochs(sched)
    if args.format == "json":
        payload = {"T": args.epochs, "L": args.layers, "kind": args.kind,
                   "switches": [{"layer": layer, "first_sa_epoch": e} for layer, e in table]}
        if args.kind == "all-sa":
            payload["note"] = "all layers SA from epoch 1"
        print(json.dumps(payload, indent=2))
    else:
        print("layer,first_sa_epoch")
        for layer, e in table:
            print(f"{layer},{e}")
        if args.kind == "all-sa":
            print("# all layers SA from epoch 1")
    return EXIT_OK


# --------------------------------------------------------------------------
# interp


def cmd_interp(args) -> int:
    config = _resolve_config(args)
    manifest = _new_manifest("interp", args.argv, config, args.out)

    def work() -> None:
        results = run_interpolation_suite(config, manifest.out_dir, resume=args.resume)
        combined = os.path.join(manifest.out_dir, "interpolation_combined.csv")
        rows = [(r["e_switch"], r["sa_epochs"], *row) for r in results for row in depth_profile_rows(r["profile"])]
        write_csv(combined, "conv_epochs,sa_epochs,depth,f,delta_log_amp", rows)
        manifest.artifacts["combined"] = combined
        manifest.artifacts["settings"] = [
            {"conv_epochs": r["e_switch"], "sa_epochs": r["sa_epochs"], "top1": r["top1"],
             "checkpoint": r["checkpoint"], "csv": r["csv"]}
            for r in results
        ]
        print(f"{len(results)} settings trained; combined profile at {combined}")

    return _run(manifest, work)


# --------------------------------------------------------------------------


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--preset", choices=PRESETS, help="packaged preset to start from")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--data-dir", help="dataset directory (overrides config)")
    p.add_argument("--out", help="output directory (default: runs/<cmd>-<timestamp>-seed<seed>)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convattn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"convattn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model under a switch schedule")
    _add_config_args(p)
    p.add_argument("--resume-from", help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reparam-check", help="verify conv -> attention function preservation")
    p.add_argument("--kernel-size", "-K", type=int, default=3)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--grid", default="8x8")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=100.0)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="sanity flag: nudge one output-projection entry to force a failure")
    p.set_defaults(func=cmd_reparam_check)

    p = sub.add_parser("fourier", help="depth profile of a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--feature-dump", help="analyze an offline feature dump instead of running the model")
    p.add_argument("--random-batch", type=int, default=0,
                   help="probe with N random images instead of dataset images")
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--tap", choices=("post-residual", "pre-residual"), default="post-residual")
    p.add_argument("--bin-width", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("schedule", help="print the per-layer switch table")
    p.add_argument("--epochs", "-T", type=int, required=True)
    p.add_argument("--layers", "-L", type=int, required=True)
    p.add_argument("--kind", default="linear", choices=KINDS)
    p.add_argument("--e-switch", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("interp", help="run the four-setting interpolation suite")
    _add_config_args(p)
    p.add_argument("--resume", action="store_true", help="resume each setting from its checkpoint_final.bin in the output directory")
    p.set_defaults(func=cmd_interp)

    return parser


def _install_signal_handlers() -> dict:
    """Turn SIGTERM and SIGINT into Interrupted; returns the handlers
    replaced. Only the main thread can set handlers, and an ignored signal
    (SIGINT in a background job) stays ignored."""
    if threading.current_thread() is not threading.main_thread():
        return {}
    return {signum: signal.signal(signum, _raise_interrupted) for signum in (signal.SIGTERM, signal.SIGINT)
            if signal.getsignal(signum) is not signal.SIG_IGN}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in the run manifest
    previous = _install_signal_handlers()
    try:
        return args.func(args)
    except (Exception, Interrupted) as exc:  # failures before a run manifest exists; _run handles the rest
        failure = _failure(exc)
        if failure is None:
            raise
        return failure[1]
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
