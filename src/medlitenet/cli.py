"""Command-line interface: synth / train / infer / eval / gradcheck / params.

Exit codes: 0 success, 2 usage/config/input error, 3 numerical failure,
4 a TTA worker process died.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from .autodiff import ShapeError
from .checkpoint import CheckpointError, load_checkpoint
from .data import generate_samples, load_dataset_dir, make_split, synth_sample
from .errors import ConfigError
from .metrics import confusion_metrics
from .model import DOWNSAMPLE_FACTOR, MedLiteNet, predict_mask
from .netpbm import (
    NetpbmError,
    load_image_ppm,
    load_mask_pgm,
    save_gray_pgm,
    save_image_ppm,
    save_mask_pgm,
)
from .runconfig import dump_resolved, load_run_config
from .training import Ensemble, NumericalError, fit, predict_proba
from .workers import WorkerError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3
WORKER_ERROR = 4


def threshold(text: str) -> float:
    """The ``--threshold`` type: a number in [0, 1] (NaN is not)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medlitenet",
        description="Lightweight CNN-Transformer lesion segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", help="generate a synthetic dataset directory",
                       formatter_class=fmt)
    p.add_argument("--count", type=int, default=16, help="number of samples")
    p.add_argument("--size", type=int, default=64,
                   help=f"image size (multiple of {DOWNSAMPLE_FACTOR})")
    p.add_argument("--seed", type=int, default=0, help="base sample seed")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a model", formatter_class=fmt)
    p.add_argument("--config", default=None, help="YAML run config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override train.seed")
    p.add_argument("--epochs", type=int, default=None,
                   help="override train.epochs")
    p.add_argument("--out", default=None, help="override paths.out_dir")
    p.add_argument("--dataset", default=None,
                   help="override paths.dataset_dir (ppm/pgm pairs)")

    p = sub.add_parser("infer", help="segment images with a checkpoint",
                       formatter_class=fmt)
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--input", required=True, help="input .ppm file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=threshold, default=0.5,
                   help="mask threshold in [0, 1]")
    p.add_argument("--tta", action="store_true",
                   help="use six-fold test-time augmentation")
    p.add_argument("--prob", action="store_true",
                   help="also write the quantized probability map")

    p = sub.add_parser("eval", help="evaluate predictions or a checkpoint",
                       formatter_class=fmt)
    p.add_argument("--pred-dir", default=None, help="directory of predicted masks")
    p.add_argument("--gt-dir", default=None, help="directory of reference masks")
    p.add_argument("--ckpt", default=None, help="checkpoint to evaluate")
    p.add_argument("--ensemble", nargs="+", default=None,
                   help="best.ckpt files for a performance-weighted ensemble")
    p.add_argument("--dataset", default=None,
                   help="dataset directory of ppm/pgm pairs")
    p.add_argument("--tta", action="store_true",
                   help="use six-fold test-time augmentation")
    p.add_argument("--threshold", type=threshold, default=0.5,
                   help="mask threshold in [0, 1]")
    p.add_argument("--out", default=None, help="optional CSV output path")

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks",
                       formatter_class=fmt)
    p.add_argument("--scope", choices=("ops", "blocks", "model"),
                   default="ops", help="which suite to run")

    p = sub.add_parser("params", help="print the parameter budget",
                       formatter_class=fmt)
    p.add_argument("--config", default=None, help="YAML run config file")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.size % DOWNSAMPLE_FACTOR != 0 or args.size <= 0:
        raise ConfigError(f"--size must be a positive multiple of "
                          f"{DOWNSAMPLE_FACTOR}, got {args.size}")
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the train split of make_split, one sample in memory at a time
    for i, spec in enumerate(make_split(args.count, 1, 1, args.seed)[0]):
        sample = synth_sample(spec.seed, args.size, spec.difficulty)
        name = f"sample_{i:05d}"
        save_image_ppm(out / f"{name}.ppm", sample.image)
        save_mask_pgm(out / f"{name}_mask.pgm", sample.mask)
        print(f"{name}.ppm {name}_mask.pgm seed={sample.seed} "
              f"difficulty={sample.difficulty}")
    return 0


def _override(section, **flags):
    """``section`` with each flag that was given in place of its field."""
    return replace(section, **{k: v for k, v in flags.items() if v is not None})


def _train_val_samples(config):
    if config.paths.dataset_dir:
        pairs = load_dataset_dir(config.paths.dataset_dir)
        samples = [s for _, s in pairs]
        n_val = max(1, len(samples) // 5)
        if len(samples) < 2:
            raise ConfigError("dataset directory needs at least two samples")
        return samples[:-n_val], samples[-n_val:]
    # the train and val splits do not depend on the test count
    train_specs, val_specs, _ = make_split(
        config.data.n_train, config.data.n_val, 1,
        config.data.base_seed, config.data.difficulty_mix)
    return (generate_samples(train_specs, config.data.size),
            generate_samples(val_specs, config.data.size))


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    config = replace(
        config, train=_override(config.train, seed=args.seed, epochs=args.epochs),
        paths=_override(config.paths, out_dir=args.out, dataset_dir=args.dataset))
    train_samples, val_samples = _train_val_samples(config)
    out = Path(config.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_resolved(config, out / "config_resolved.yaml")
    model = MedLiteNet(config.model, seed=config.train.seed)
    result = fit(model, train_samples, val_samples, config.train,
                 out_dir=out, augment_config=config.augment, log_fn=print)
    print(f"best epoch {result.best_epoch} val dice {result.best_val_dice:.4f}")
    print(f"wrote {result.best_checkpoint} and {result.last_checkpoint}")
    return 0


def _list_inputs(path: Path):
    if path.is_dir():
        files = sorted(path.glob("*.ppm"))
        if not files:
            raise FileNotFoundError(f"no .ppm files found in {path}")
        return files
    if not path.exists():
        raise FileNotFoundError(f"input not found: {path}")
    return [path]


def cmd_infer(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for f in _list_inputs(Path(args.input)):
        image = load_image_ppm(f)
        start = time.perf_counter()
        prob = predict_proba(model, image[None], args.tta)
        elapsed = (time.perf_counter() - start) * 1000.0
        mask = predict_mask(prob[0, 0], args.threshold)
        save_mask_pgm(out / f"{f.stem}_pred.pgm", mask)
        if args.prob:
            save_gray_pgm(out / f"{f.stem}_prob.pgm", prob[0, 0])
        print(f"{f.name}: wrote {f.stem}_pred.pgm ({elapsed:.1f} ms)")
    return 0


def _eval_rows_from_dirs(pred_dir: Path, gt_dir: Path):
    gts = sorted(gt_dir.glob("*.pgm"))
    if not gts:
        raise FileNotFoundError(f"no .pgm masks found in {gt_dir}")
    pairs, missing = [], []
    for g in gts:
        # same name, or the infer convention <name>_pred.pgm for <name>_mask.pgm;
        # the row takes the image's name, as it does with --dataset
        name, candidates = g.stem, [pred_dir / g.name]
        if g.name.endswith("_mask.pgm"):
            name = g.name[:-len("_mask.pgm")]
            candidates.append(pred_dir / f"{name}_pred.pgm")
        found = next((c for c in candidates if c.exists()), None)
        if found is None:
            missing.append(g.name)
        else:
            pairs.append((name, g, found))
    if missing:
        raise FileNotFoundError(
            f"prediction dir lacks matching files: {', '.join(missing)}")
    for name, g, p in pairs:
        yield name, load_mask_pgm(p), load_mask_pgm(g)


def _eval_rows_from_model(net, dataset_dir, tta, threshold):
    for name, sample in load_dataset_dir(dataset_dir):
        prob = predict_proba(net, sample.image[None], tta)
        yield name, predict_mask(prob[0], threshold), sample.mask   # [1,H,W]


def _load_ensemble(paths) -> Ensemble:
    models, dices = [], []
    for path in paths:
        model, extras = load_checkpoint(path)
        if extras["ema_shadow"] is not None:
            # last.ckpt: live weights that no validation scored, stored with
            # best.ckpt's best_val_dice
            raise ConfigError(
                f"checkpoint {path} is a training state with ema/ tables, as "
                f"last.ckpt is; no validation scored its weights, so it cannot "
                f"join an ensemble (use best.ckpt)")
        stored = extras["meta"].get("best_val_dice")
        if type(stored) not in (int, float) or not np.isfinite(stored):
            raise ConfigError(
                f"checkpoint {path} stores no finite best_val_dice, got "
                f"{stored!r}; cannot weight the ensemble")
        models.append(model)
        dices.append(float(stored))
    return Ensemble(models, dices)


def cmd_eval(args) -> int:
    if args.pred_dir and args.gt_dir:
        rows = _eval_rows_from_dirs(Path(args.pred_dir), Path(args.gt_dir))
    elif (args.ensemble or args.ckpt) and args.dataset:
        net = (_load_ensemble(args.ensemble) if args.ensemble
               else load_checkpoint(args.ckpt)[0])
        rows = _eval_rows_from_model(net, args.dataset, args.tta, args.threshold)
    else:
        raise ConfigError(
            "eval needs either --pred-dir with --gt-dir, or --ckpt/--ensemble "
            "with --dataset")

    header = ("name", "dice", "iou", "accuracy", "sensitivity", "specificity")
    table = []
    for name, pred, gt in rows:
        rec = confusion_metrics(pred, gt)
        table.append((name, rec.dice, rec.iou, rec.accuracy, rec.sensitivity,
                      rec.specificity))
    print(",".join(header))
    for row in table:
        print(row[0] + "," + ",".join(f"{v:.6f}" for v in row[1:]))
    stats = np.array([row[1:] for row in table], dtype=np.float64)
    mean, std = stats.mean(axis=0), stats.std(axis=0)
    print("aggregate: " + "  ".join(
        f"{h}={m:.4f}+/-{s:.4f}" for h, m, s in zip(header[1:], mean, std)))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table)
    return 0


def cmd_gradcheck(args) -> int:
    checks = gc.run_scope(args.scope)
    width = max(len(name) for name, _ in checks)
    failures = 0
    for name, report in checks:
        status = "pass" if report.passed else "FAIL"
        print(f"{name:<{width}}  max_rel_err={report.max_rel_err:<12.3e} "
              f"coords={report.checked:<4d} {status}")
        failures += not report.passed
    print(f"{args.scope}: {len(checks) - failures}/{len(checks)} checks passed "
          f"(tol {gc.DEFAULT_TOLS[args.scope]:g})")
    return 0 if failures == 0 else 1


def cmd_params(args) -> int:
    config = load_run_config(args.config)
    model = MedLiteNet(config.model, seed=config.train.seed)
    counts = model.count_parameters()
    for key, value in counts["breakdown"].items():
        print(f"{key:<12} {value:>12,}")
    print(f"{'total':<12} {counts['total']:>12,}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "train": cmd_train,
        "infer": cmd_infer,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
        "params": cmd_params,
    }
    try:
        return handlers[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return WORKER_ERROR
    except (ConfigError, CheckpointError, NetpbmError, ShapeError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
