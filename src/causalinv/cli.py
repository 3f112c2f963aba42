"""Command-line entry point: train, optimize and evaluate subcommands.

All randomness flows from a single seed (flag ``--seed``, falling back to the
PROPHIT_SEED environment variable, then 0) split deterministically per
component, so every command is byte-for-byte reproducible given identical
inputs and the same BLAS thread count. ``train`` fits the optimization-side
models on the first half of the seeded split and serializes them;
``optimize`` loads them and emits policy records for validation-half
instances, splitting with the seed recorded in the artifacts' manifest (it
takes no ``--seed``); ``evaluate`` runs the full two-model protocol and
writes the sweep report.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields, replace

from .data import (DataError, SchemaError, denormalize, load_dataset,
                   normalize, read_json, split_half, write_json)
from .experiment import (SideModels, TrainSettings, _derive_seed,
                         fit_side_models, run_experiment, write_report,
                         write_sweep_csv)
from .gp import gp_from_dict, gp_to_dict
from .nets import IndirectEstimator, MlpClassifier, net_from_dict, net_to_dict
from .optimize import OptimizationConfig, OptimizationError, Variant, optimize

MANIFEST_FORMAT = "causalinv-manifest-1"
# each network's file in models/, its SideModels attribute and its class
NET_FILES = (("classifier_weighted.json", "f_weighted", MlpClassifier),
             ("classifier_plain.json", "f_plain", MlpClassifier),
             ("indirect.json", "H", IndirectEstimator))


def _split_list(values, cast):
    out = []
    for v in values or []:
        for tok in str(v).split(","):
            tok = tok.strip()
            if tok:
                out.append(cast(tok))
    return out


def _one_value(values, cast, flag, default=None):
    """The single value of an ``optimize`` flag, or ``default`` when absent."""
    vals = _split_list(values, cast) or ([] if default is None else [default])
    if len(vals) != 1:
        raise ValueError(f"optimize expects exactly one {flag}, got {len(vals)}")
    return vals[0]


def _seed_from(args):
    source, value = (("--seed", args.seed) if args.seed is not None else
                     ("PROPHIT_SEED", os.environ.get("PROPHIT_SEED") or "0"))
    try:
        seed = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be at least 0, got {seed}")
    return seed


def _settings_from(args):
    kwargs = {fld.name: getattr(args, fld.name) for fld in fields(TrainSettings)
              if getattr(args, fld.name, None) is not None}
    archs = _split_list(args.arch, str)
    if archs:
        kwargs["arch_grid"] = tuple(
            tuple(int(w) for w in a.split("x") if w) for a in archs)
    return TrainSettings(**kwargs)


def _gp_file(treatment):
    return f"gp_{''.join(ch if ch.isalnum() else '_' for ch in treatment)}.json"


def _fingerprint(raw):
    """SHA-256 of a loaded data matrix's values, before normalization."""
    return hashlib.sha256(raw.X.astype("<f8", copy=False).tobytes()).hexdigest()


def cmd_train(args) -> int:
    seed = _seed_from(args)
    settings = _settings_from(args)
    raw = load_dataset(args.data, args.schema)
    ds = normalize(raw)
    opt_half, val_half = split_half(ds, seed)
    side = fit_side_models(opt_half, _derive_seed(seed, 1), settings)

    models_dir = os.path.join(args.out, "models")
    os.makedirs(models_dir, exist_ok=True)
    for file_name, attr, _ in NET_FILES:
        write_json(net_to_dict(getattr(side, attr)),
                   os.path.join(models_dir, file_name))
    for name, gp in zip(ds.schema.treatment_names(), side.gps):
        write_json(gp_to_dict(gp), os.path.join(models_dir, _gp_file(name)))
    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": seed,
        "data": os.path.basename(args.data),
        "data_sha256": _fingerprint(raw),
        "schema": os.path.basename(args.schema),
        "n": ds.n, "n_opt": opt_half.n, "n_val": val_half.n,
        "treatments": list(ds.schema.treatment_names()),
        "classifiers": {
            kind: {key: f.training_meta[key]
                   for key in ("arch", "cv_loss", "cv_losses")}
            for kind, f in (("weighted", side.f_weighted),
                            ("plain", side.f_plain))},
        "settings": settings.record(),
        "gps": {name: {"log_marginal": gp.log_marginal, "jitter": gp.jitter,
                       "at_bound": list(gp.at_bound)}
                for name, gp in zip(ds.schema.treatment_names(), side.gps)},
    }
    write_json(manifest, os.path.join(args.out, "manifest.json"))
    print(f"trained models written to {models_dir}")
    print(f"selected architectures: weighted={manifest['classifiers']['weighted']['arch']} "
          f"plain={manifest['classifiers']['plain']['arch']}")
    return 0


def _manifest_seed(doc, names, n, fingerprint):
    """The split seed of a manifest of models trained on the list ``names``
    of treatments and on data of ``n`` rows whose :func:`_fingerprint` is
    ``fingerprint``."""
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported manifest format {doc.get('format')!r}")
    if doc["treatments"] != names:
        raise ValueError(f"the artifacts were trained on treatments "
                         f"{doc['treatments']}, but the data has {names}")
    if doc["n"] != n:
        raise ValueError(f"the artifacts were trained on data of {doc['n']!r} "
                         f"rows, but the data has {n}")
    if doc["data_sha256"] != fingerprint:
        raise ValueError(f"the artifacts were trained on data of SHA-256 "
                         f"{doc['data_sha256']!r}, but the data has "
                         f"{fingerprint!r}")
    if type(doc["seed"]) is not int or doc["seed"] < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {doc['seed']!r}")
    return doc["seed"]


def _load_artifacts(art_dir, treatments):
    models_dir = os.path.join(art_dir, "models")
    return SideModels(
        **{attr: read_json(os.path.join(models_dir, name), net_from_dict, cls)
           for name, attr, cls in NET_FILES},
        gps=tuple(read_json(os.path.join(models_dir, _gp_file(t)), gp_from_dict)
                  for t in treatments))


def cmd_optimize(args) -> int:
    budget = _one_value(args.budget, float, "--budget")
    lam = _one_value(args.lam, float, "--lambda", default=OptimizationConfig.lam)
    variant = Variant(_one_value(args.variant, str, "--variant",
                                 default=OptimizationConfig.variant))
    cfg = OptimizationConfig(budget=budget, step=args.step,
                             max_iters=args.max_iters, lam=lam, variant=variant)
    if args.print_limit < 0:
        raise ValueError(f"--print-limit must be at least 0, got {args.print_limit}")

    raw = load_dataset(args.data, args.schema)
    ds = normalize(raw)
    art_dir = args.artifacts or args.out
    names = list(ds.schema.treatment_names())
    seed = read_json(os.path.join(art_dir, "manifest.json"), _manifest_seed,
                     names, ds.n, _fingerprint(raw))
    _, val_half = split_half(ds, seed)
    side = _load_artifacts(art_dir, names)
    f = side.classifier(variant)

    rows = _split_list(args.instances, int) or list(range(val_half.n))
    for i in rows:
        if not 0 <= i < val_half.n:
            raise ValueError(f"--instances position {i} outside the "
                             f"validation half [0, {val_half.n})")
    t_idx = list(ds.schema.treatment_idx)
    served = val_half.take(rows)
    results = []
    for i, x_bar in zip(rows, served.X):
        try:
            results.append(optimize(x_bar, f, side.H, side.gps, ds.schema, cfg))
        except OptimizationError as exc:
            raise OptimizationError(f"--instances position {i}: {exc}") from exc
    X_star = served.X.copy()
    X_star[:, t_idx] = [res.x_T_star for res in results]
    raw_before = denormalize(served)[:, t_idx]
    raw_after = denormalize(replace(served, X=X_star))[:, t_idx]
    records = []
    for k, (i, res) in enumerate(zip(rows, results)):
        x0, x1 = served.X[k, t_idx], res.x_T_star
        records.append({
            "row": i,
            "treatments": names,
            "original": x0.tolist(),
            "optimized": x1.tolist(),
            "delta": (x1 - x0).tolist(),
            "original_raw": raw_before[k].tolist(),
            "optimized_raw": raw_after[k].tolist(),
            "aps": res.aps_star.density.tolist(),
            "cost": res.cost_spent,
            "objective_initial": float(res.objective_trace[0]),
            "objective_final": float(res.objective_trace.min()),
            "iterations": res.iterations_used,
        })
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "policies.json")
    write_json(records, out_path)
    for rec in records[:args.print_limit]:
        print(f"row {rec['row']}: cost {rec['cost']:.3f} "
              f"objective {rec['objective_initial']:.4f} -> {rec['objective_final']:.4f}")
        for t, o, v, d, a in zip(names, rec["original"], rec["optimized"],
                                 rec["delta"], rec["aps"]):
            if abs(d) > 1e-9:
                print(f"  {t}: {o:.3f} -> {v:.3f} (delta {d:+.3f}, aps {a:.3f})")
    print(f"{len(records)} policy records written to {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    budgets = _split_list(args.budget, float)
    lams = _split_list(args.lam, float)
    variants = [Variant(v) for v in (_split_list(args.variant, str)
                                     or [v.value for v in Variant])]
    seed = _seed_from(args)
    settings = _settings_from(args)
    ds = normalize(load_dataset(args.data, args.schema))
    report = run_experiment(ds, budgets=budgets, lambdas=lams,
                            variants=variants, seed=seed,
                            settings=settings, step=args.step,
                            max_iters=args.max_iters, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    write_report(report, os.path.join(args.out, "report.json"))
    write_sweep_csv(report, os.path.join(args.out, "sweep.csv"))
    for c in report.cells:
        print(f"{c.variant:<13s} B={c.budget:5.2f} lam={c.lam:5.2f}  "
              f"iFEE={c.ifee_mean:+.4f}  APS={c.aps_mean:.4f} "
              f"(kept {c.kept}/{c.n_instances}, failed {c.n_failed})")
    print(f"report and sweep written to {args.out}")
    return 0


def _add_common(p, training=True):
    p.add_argument("--data", required=True, help="CSV data file")
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--out", required=True, help="output directory")
    if training:
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: $PROPHIT_SEED or 0)")
        for fld in fields(TrainSettings):  # --folds ... --gp-restarts
            if fld.name != "arch_grid":
                p.add_argument("--" + fld.name.replace("_", "-"), dest=fld.name,
                               type=type(fld.default), default=None)
        p.add_argument("--arch", action="append", default=None,
                       help="architecture candidate, widths joined by 'x' "
                            "(e.g. 32x16); repeatable")


def _add_search(p):
    """The search flags of ``optimize`` and ``evaluate``."""
    p.add_argument("--budget", action="append", required=True)
    p.add_argument("--lambda", dest="lam", action="append", default=None)
    p.add_argument("--variant", action="append", default=None,
                   help="f | fprime-noopt | fprime-opt | g")
    p.add_argument("--step", type=float, default=OptimizationConfig.step,
                   help="gradient step; keep below sigma^2/lambda for "
                        "large lambda or the pull term oscillates")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   default=OptimizationConfig.max_iters)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="causalinv",
        description="budget-constrained treatment policies from "
                    "propensity-corrected classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit and serialize the models")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_opt = sub.add_parser("optimize", help="optimize validation instances")
    _add_common(p_opt, training=False)
    p_opt.add_argument("--artifacts", default=None,
                       help="directory with manifest.json and models/ "
                            "(default: --out)")
    _add_search(p_opt)
    p_opt.add_argument("--instances", action="append", default=None,
                       help="validation-half row positions (comma separated)")
    p_opt.add_argument("--print-limit", dest="print_limit", type=int, default=5)
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="run the full experiment protocol")
    _add_common(p_eval)
    _add_search(p_eval)
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, SchemaError, DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected failure: nonzero, with diagnostics
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
