"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import evaluation
from .baselines import EigenSolverDidNotConverge
from .cholesky import NotPositiveDefinite
from .dataset import (
    DataFormatError,
    Dataset,
    l2_normalize,
    l2_normalize_rows,
    load_csv,
    load_features_csv,
    make_synthetic,
    write_csv,
)
from .kernel import KernelSpec, median_pairwise_distance
from .model import (
    ModelFormatError,
    calibrate_threshold,
    fit,
    fit_incremental,
    fit_supervised,
    load_model,
    save_model,
    score_batch,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _sigma_arg(value: str):
    if value == "median":
        return "median"
    try:
        sigma = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sigma must be 'median' or a real, got {value!r}")
    if sigma <= 0:
        raise argparse.ArgumentTypeError("sigma must be positive")
    return sigma


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ocksr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_flags(p):
        p.add_argument("--sigma", type=_sigma_arg, default="median",
                       help="kernel bandwidth, or 'median' for the median "
                            "pairwise distance of the training targets")
        p.add_argument("--delta", type=float, default=0.0,
                       help="diagonal regularizer (escalated automatically on "
                            "numerically singular systems)")

    def add_normalize_flag(p):
        p.add_argument("--no-normalize", action="store_true",
                       help="skip per-row unit-norm scaling")

    p = sub.add_parser("synth", help="generate a labeled synthetic CSV")
    p.add_argument("--n-pos", type=int, default=100)
    p.add_argument("--n-neg", type=int, default=100)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV (label in column 0)")

    p = sub.add_parser("train", help="fit a model on the target rows of a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=int, required=True)
    add_kernel_flags(p)
    add_normalize_flag(p)
    p.add_argument("--negatives", action="store_true",
                   help="also use label-0 rows, as supervised negatives")
    p.add_argument("--append", metavar="MODEL",
                   help="extend an existing model with the target rows instead "
                        "of fitting from scratch (data must contain no negatives)")
    p.add_argument("--out", required=True, help="output model file")

    p = sub.add_parser("score", help="score probe rows against a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=int, default=None,
                   help="label column to drop if the probe file is labeled")
    p.add_argument("--tau", type=float, default=None,
                   help="decision threshold (defaults to the one stored in the model)")
    add_normalize_flag(p)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("calibrate",
                       help="choose a novelty threshold by leave-one-out scoring")
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=int, required=True)
    p.add_argument("--rejection", type=float, required=True,
                   help="desired training rejection rate in [0, 1)")
    add_kernel_flags(p)
    add_normalize_flag(p)
    p.add_argument("--model", default=None,
                   help="existing model whose kernel settings are reused and "
                        "whose file is rewritten with the calibrated threshold")
    p.add_argument("--out", default=None,
                   help="where to write the updated model (default: --model path)")

    p = sub.add_parser("eval", help="repeated split AUC for one method")
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=int, required=True)
    p.add_argument("--method", choices=evaluation.SCORER_NAMES, default="ocksr")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None,
                   help="neighborhood parameter (default: sweep 3..10)")
    add_kernel_flags(p)
    add_normalize_flag(p)
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("bench", help="benchmark methods across datasets")
    p.add_argument("--data", action="append", required=True,
                   help="labeled CSV; repeat the flag for several datasets")
    p.add_argument("--label-col", type=int, required=True)
    p.add_argument("--method", action="append", required=True,
                   choices=evaluation.SCORER_NAMES,
                   help="method to include; repeat the flag for several")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None,
                   help="neighborhood parameter (default: sweep 3..10)")
    add_kernel_flags(p)
    add_normalize_flag(p)
    p.add_argument("--out", required=True,
                   help="report prefix: writes PREFIX.csv, PREFIX_ranks.csv, PREFIX.json")
    return parser


def _load_normalized(path: str, label_col: int, no_normalize: bool) -> Dataset:
    ds = load_csv(path, label_col)
    return ds if no_normalize else l2_normalize(ds)


def _resolve_spec(sigma, delta: float, X_pos: np.ndarray) -> KernelSpec:
    value = median_pairwise_distance(X_pos) if sigma == "median" else float(sigma)
    return KernelSpec(sigma=value, delta=delta)


def _cmd_synth(args) -> int:
    ds = make_synthetic(args.n_pos, args.n_neg, args.dim, args.separation, args.seed)
    write_csv(ds, args.out)
    print(f"wrote {ds.n} rows ({args.n_pos} targets, {args.n_neg} outliers, "
          f"d={args.dim}) to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    ds = _load_normalized(args.data, args.label_col, args.no_normalize)
    pos, neg = ds.targets(), ds.outliers()
    if pos.shape[0] == 0:
        raise DataFormatError(f"{args.data}: no target rows to train on")

    if args.append:
        if args.negatives or neg.shape[0] > 0:
            raise DataFormatError(
                "appending accepts positive rows only; negatives require a refit")
        model = fit_incremental(load_model(args.append), pos)
    elif args.negatives:
        spec = _resolve_spec(args.sigma, args.delta, pos)
        model = fit_supervised(pos, neg, spec)
    else:
        spec = _resolve_spec(args.sigma, args.delta, pos)
        model = fit(pos, spec)

    save_model(model, args.out)
    # (K + delta I) alpha = nu, so the training projections K alpha are
    # nu - delta alpha: no second kernel matrix is needed
    variance = float(np.var(model.nu - model.spec.delta * model.alpha))
    print(f"trained on n={model.n} rows (n_neg={model.n_neg}), d={model.d}")
    print(f"sigma={model.spec.sigma:.12g} delta={model.spec.delta:.12g}")
    print(f"training projection variance={variance:.12g}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _cmd_score(args) -> int:
    model = load_model(args.model)
    if args.label_col is not None:
        Z = load_csv(args.data, args.label_col).X
    else:
        Z = load_features_csv(args.data)
    if not args.no_normalize:
        Z = l2_normalize_rows(Z)
    if Z.shape[1] != model.d:
        raise DataFormatError(
            f"{args.data}: probe dimension {Z.shape[1]} does not match model "
            f"dimension {model.d}")
    tau = args.tau if args.tau is not None else model.tau

    projections, novelties = score_batch(model, Z)
    lines = ["index,projection,novelty" + (",decision" if tau is not None else "")]
    for i, (p, nov) in enumerate(zip(projections, novelties)):
        row = f"{i},{p:.12g},{nov:.12g}"
        if tau is not None:
            row += "," + ("target" if nov <= tau else "outlier")
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"scored {Z.shape[0]} probes to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    ds = _load_normalized(args.data, args.label_col, args.no_normalize)
    pos = ds.targets()
    if args.model:
        model = load_model(args.model)
        if pos.shape[1] != model.d:
            raise DataFormatError(
                f"{args.data}: data dimension {pos.shape[1]} does not match model "
                f"dimension {model.d}")
        spec = model.spec
    else:
        model = None
        spec = _resolve_spec(args.sigma, args.delta, pos)
    tau = calibrate_threshold(pos, spec, args.rejection)
    print(f"tau={tau:.12g}")
    if model is not None:
        out = args.out or args.model
        save_model(replace(model, tau=tau), out)
        print(f"updated model written to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    ds = _load_normalized(args.data, args.label_col, args.no_normalize)
    report = evaluation.bench_run(
        [ds], [args.method], args.repeats, args.seed,
        sigma=args.sigma, fixed_k=args.k)
    cell = report.cells[ds.name][args.method]
    if cell.error is not None:
        raise RuntimeError(cell.error)
    param = f" k={cell.param}" if cell.param is not None else ""
    print(f"{args.method}{param}: mean_auc={cell.mean:.6f} std={cell.std:.6f} "
          f"({args.repeats} repeats, seed {args.seed})")
    if args.out:
        evaluation.write_bench_json(report, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    datasets = [
        _load_normalized(path, args.label_col, args.no_normalize)
        for path in args.data
    ]
    report = evaluation.bench_run(
        datasets, args.method, args.repeats, args.seed,
        sigma=args.sigma, fixed_k=args.k)
    evaluation.write_bench_csv(report, args.out + ".csv")
    evaluation.write_ranks_csv(report, args.out + "_ranks.csv")
    evaluation.write_bench_json(report, args.out + ".json")
    for ds in report.datasets:
        for m in report.methods:
            cell = report.cells[ds][m]
            if cell.error is not None:
                print(f"{ds} {m}: MISSING ({cell.error})")
            else:
                param = f" k={cell.param}" if cell.param is not None else ""
                print(f"{ds} {m}{param}: mean_auc={cell.mean:.6f} std={cell.std:.6f}")
    if report.average_ranks:
        ranks = " ".join(f"{m}={r:.3g}" for m, r in report.average_ranks.items())
        print(f"average ranks: {ranks}")
        print(f"friedman chi_square={report.chi_square:.6g} p={report.p_value:.6g}")
    print(f"reports written to {args.out}.csv, {args.out}_ranks.csv, {args.out}.json")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "score": _cmd_score,
    "calibrate": _cmd_calibrate,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataFormatError, ModelFormatError, FileNotFoundError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except (NotPositiveDefinite, EigenSolverDidNotConverge) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except RuntimeError as exc:
        cause = exc.__cause__
        if isinstance(cause, (NotPositiveDefinite, EigenSolverDidNotConverge)):
            sys.stderr.write(f"numerical failure: {exc}\n")
            return EXIT_NUMERICAL
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
