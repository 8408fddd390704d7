"""Command-line harness.

Subcommands: `gen` writes a synthetic dataset file, `train` trains the
sweep's first model unit and saves its parameters, `sweep` runs the
corruption robustness sweep and writes a results CSV, `inspect` dumps the
per-window filters of that first unit (a DSF model), and `taylor-bench`
emits the truncated-series matrix-log error curve as CSV.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .attention import VARIANTS
from .binio import write_csv
from .config import load_experiment_config
from .harness import (DEEP_MODELS, RANDOM_MASK, _cell_spec, cell_seed,
                      inspect_filters, run_sweep, sweep_units,
                      train_model_unit)
from .linalg import matrix_log_eig, matrix_log_taylor, oas_shrink, \
    sample_covariance
from .nn import check_interval
from .synth import generate_dataset, load_dataset, save_dataset, \
    split_dataset


def _seed(text: str) -> int:
    # derive_seed keeps 64 bits, so a seed outside them would alias another.
    if not (text.isdecimal() and int(text) < 2**64):
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**64), got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="master seed, an integer in [0, 2**64)")
    parser.add_argument("--out", required=True, help="output path")


def _load_configs(args):
    data_cfg, sweep_cfg = load_experiment_config(args.config or None)
    return data_cfg, replace(sweep_cfg, master_seed=args.seed)


def cmd_gen(args) -> int:
    data_cfg, _ = _load_configs(args)
    ds = generate_dataset(data_cfg, args.seed)
    ds = split_dataset(ds, (0.6, 0.2, 0.2), args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds.recordings)} recordings to {args.out}")
    return 0


def _first_unit(args, models, kind):
    """The sweep config, its first unit and the dataset; the unit's model
    must be in `models`, which is checked before the dataset loads."""
    _, sweep_cfg = _load_configs(args)
    name = sweep_cfg.models[0][0]
    if name not in models:
        raise ValueError(f"{name!r} is not a {kind}")
    ds = load_dataset(args.dataset)
    return sweep_cfg, sweep_units(sweep_cfg, ds.config.n_channels)[0], ds


def cmd_train(args) -> int:
    # A feature model has no parameter file.
    sweep_cfg, unit, ds = _first_unit(args, DEEP_MODELS, "deep model")
    model, log = train_model_unit(sweep_cfg, ds, *unit)
    model.store.save(args.out)
    print(f"trained {unit.name} ({unit.denoise}), best epoch "
          f"{log.best_epoch}, saved parameters to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    _, sweep_cfg = _load_configs(args)
    ds = load_dataset(args.dataset)
    rows = run_sweep(sweep_cfg, ds, args.out, jobs=args.jobs)
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    check_interval("--eta", args.eta, "[0, 1]")
    sweep_cfg, unit, ds = _first_unit(args, VARIANTS, "DSF-family model")
    if not ds.split("test"):
        raise ValueError(f"{args.dataset}: dataset has no test split")
    C = ds.config.n_channels
    if args.n_corrupted is not None:
        check_interval("--n-corrupted", args.n_corrupted, f"[0, {C}]",
                       f"the dataset has {C} channels", integer=True)
    model, _ = train_model_unit(sweep_cfg, ds, *unit)
    spec = _cell_spec(sweep_cfg, args.eta, RANDOM_MASK
                      if args.n_corrupted is None else args.n_corrupted)
    _, summary = inspect_filters(model, ds.split("test"), spec,
                                 cell_seed(unit.seed), dump_path=args.out)
    for ch, (q25, med, q75) in summary.items():
        print(f"channel {ch}: phi median {med:.4f} (q25 {q25:.4f}, "
              f"q75 {q75:.4f})")
    return 0


def taylor_error_curve(windows, n_terms_grid):
    """Median/mean relative error of the truncated-series matrix log
    against the eigendecomposition value, per term count."""
    X = np.asarray(windows, dtype=np.float64)
    covs = oas_shrink(sample_covariance(X), X.shape[-1])
    exact = matrix_log_eig(covs)
    exact_norm = np.linalg.norm(exact, 2, axis=(-2, -1))
    curve = []
    for n in n_terms_grid:
        approx = matrix_log_taylor(covs, n)
        errs = np.linalg.norm(exact - approx, 2, axis=(-2, -1)) / exact_norm
        curve.append((n, float(np.median(errs)), float(errs.mean()),
                      float(errs.std())))
    return curve


def cmd_taylor_bench(args) -> int:
    terms = args.terms.split(",")
    if not all(t.strip().isdecimal() and int(t) >= 1 for t in terms):
        raise ValueError(f"--terms must be integers >= 1, got {args.terms!r}")
    data_cfg, _ = _load_configs(args)
    n_total = data_cfg.n_recordings * data_cfg.windows_per_recording
    check_interval("--n-windows", args.n_windows, f"[1, {n_total}]",
                   f"the [data] config has {n_total} windows", integer=True)
    # Recording r comes from its own generator, so the leading recordings
    # of a shorter dataset are those of the full one.
    n_rec = -(-args.n_windows // data_cfg.windows_per_recording)
    ds = generate_dataset(replace(data_cfg, n_recordings=n_rec), args.seed)
    windows = np.concatenate([r.windows for r in ds.recordings])
    curve = taylor_error_curve(windows[:args.n_windows],
                               sorted({int(t) for t in terms}))
    write_csv(args.out, [("n_terms", "median_rel_error", "mean_rel_error",
                          "std_rel_error"), *curve])
    for n, med, mean, std in curve:
        print(f"n={n:3d}  median {med:.4f}  mean {mean:.4f}  std {std:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsfnet",
        description="dynamic spatial filtering experiments on synthetic "
                    "multichannel data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model unit")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="dataset file from gen")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run the corruption robustness sweep")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="dataset file from gen")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each trains and evaluates "
                        "whole model units")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="dump per-window DSF filters")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="dataset file from gen")
    p.add_argument("--eta", type=float, default=0.0,
                   help="corruption strength for the inspected condition")
    p.add_argument("--n-corrupted", type=int, default=None,
                   help="exact number of corrupted channels")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("taylor-bench",
                       help="truncated-series matrix-log error curve")
    _add_common(p)
    p.add_argument("--n-windows", type=int, default=1000)
    p.add_argument("--terms", default="5,10,20,50",
                   help="comma-separated term counts")
    p.set_defaults(func=cmd_taylor_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        # Bad configs (ConfigError), bad or unreadable files (their
        # messages name the path) and bad arguments.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
