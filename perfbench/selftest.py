"""Shows that every output check in checks.py can fail.

    python3 perfbench/selftest.py

Fits small models on a 60-row synthetic corpus, serves a few policies, and
feeds each check first the program's real output, which it must accept, and
then a corrupted copy, which it must reject: a shifted GP mean, an
over-budget or out-of-box policy, a wrong iFEE or APS, a non-zero
zero-budget iFEE, a failed row and a wrongly selected architecture. Exits 1
if any check accepts a corruption or rejects a real output.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from causalinv import experiment, gp, synth  # noqa: E402
from causalinv.data import load_dataset, normalize, split_half  # noqa: E402
from causalinv.optimize import OptimizationConfig, Variant, optimize  # noqa: E402

import checks  # noqa: E402

BUDGET = 1.0


def main():
    out = os.path.join(HERE, "out", "selftest")
    csv_path, schema_path = synth.write_corpus(out, n=60, seed=3)
    raw = load_dataset(csv_path, schema_path)
    ds = normalize(raw)
    opt, val = split_half(ds, 0)
    settings = experiment.TrainSettings(gp_restarts=0, folds=2,
                                        arch_grid=((4,), (8,)), epochs=20)
    opt_side = experiment.fit_side_models(opt, 1, settings)
    val_side = experiment.fit_side_models(val, 2, settings)
    c_idx, t_idx = list(ds.schema.control_idx), list(ds.schema.treatment_idx)
    rows = val.X[:8]
    XC, XT_bar = rows[:, c_idx], rows[:, t_idx]
    cfg = OptimizationConfig(budget=BUDGET, variant=Variant.G, lam=0.1)
    policies = [optimize(x, opt_side.f_weighted, opt_side.H, opt_side.gps,
                         ds.schema, cfg) for x in rows]
    XT_star = np.array([p.x_T_star for p in policies])
    effs = np.array([experiment.ifee(val_side.f_weighted, val_side.H,
                                     val_side.gps, ds.schema, x, p.x_T_star,
                                     weighted=True)
                     for x, p in zip(rows, policies)])
    density = np.array([p.aps_star.density for p in policies])
    aps = checks.filtered_aps(density, XT_bar, XT_star)
    raw_schema = checks.RawSchema(schema_path, ds.schema.treatment_names(),
                                  raw.treatments())
    model = opt_side.gps[0]
    means, stds = gp.predict_batch(model, XC)
    zero_cell = {"variant": "g", "budget": 0.0, "lambda": 0.1, "ifee_mean": 0.0,
                 "n_failed": 0, "failed_rows": [],
                 "freq_counts": [0] * len(t_idx)}
    meta = opt_side.f_weighted.training_meta
    other_arch = [a for a in settings.arch_grid if list(a) != meta["arch"]][0]
    # 1 % over budget by raising the dearest treatment, staying in its box
    j = int(np.argmax(raw_schema.cost_up))
    over = XT_star.copy()
    over[0] = XT_bar[0]
    over[0, j] += 1.01 * BUDGET / raw_schema.cost_up[j]
    if over[0, j] > raw_schema.upper[j]:
        raise RuntimeError("the over-budget policy left its box; pick another row")
    outside = XT_star.copy()
    outside[1, 0] = raw_schema.upper[0] + 1e-6

    # (check, its real output, a corrupted copy)
    cases = {
        "GP moments": (lambda t, m: checks.check_gp(
            t, "gp", checks.gp_params(model), XC, means + m, stds), 0.0, 1e-3),
        "policy budget": (lambda t, x: checks.check_policies(
            t, "policy", raw_schema, XT_bar, x, BUDGET), XT_star, over),
        "policy box": (lambda t, x: checks.check_policies(
            t, "policy", raw_schema, XT_bar, x, 10.0 * BUDGET), XT_star,
            outside),
        "iFEE": (lambda t, d: checks.check_ifee(
            t, "ifee", checks.ifee_values(val_side.f_weighted, val_side.H,
                                          val_side.gps, XC, XT_bar, XT_star),
            effs + d), 0.0, np.r_[1e-6, np.zeros(len(effs) - 1)]),
        "APS": (lambda t, d: checks.check_aps(
            t, "aps", opt_side.gps, XC, XT_bar, XT_star, aps + d), 0.0, 1e-6),
        "zero-budget iFEE": (checks.check_cell, zero_cell,
                             dict(zero_cell, ifee_mean=1e-12)),
        "zero-budget adjustments": (
            checks.check_cell, zero_cell,
            dict(zero_cell, freq_counts=[1] + [0] * (len(t_idx) - 1))),
        "failed rows": (checks.check_cell, zero_cell,
                        dict(zero_cell, budget=1.0, ifee_mean=0.1, n_failed=1,
                             failed_rows=[3])),
        "selected architecture": (
            lambda t, m: checks.check_selected_arch(t, "arch", m), meta,
            dict(meta, arch=list(other_arch))),
    }
    wrong = 0
    for name, (check, real, corrupted) in cases.items():
        accepted = check(checks.Tally(), real)
        rejected = not check(checks.Tally(), corrupted)
        ok = accepted and rejected
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: real output "
              f"{'accepted' if accepted else 'REJECTED'}, corrupted output "
              f"{'rejected' if rejected else 'ACCEPTED'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
