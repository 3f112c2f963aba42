"""Walk one student through budget-constrained policy optimization.

Projected gradient descent moves the treatment vector downhill through the
classifier while a weighted-l1 budget prices every change (asymmetrically:
studying more costs more effort than studying less) and box bounds keep each
treatment in its feasible range. The four descent variants differ in how much
they know about the propensity surface.

Run from the repository root:  python demos/03_policy_optimization.py
"""

import causalinv as ci
from causalinv.experiment import TrainSettings, fit_side_models
from causalinv.optimize import OptimizationConfig, Variant

ds = ci.normalize(ci.load_dataset("data/students.csv",
                                  "data/students_schema.json"))
opt_half, val_half = ci.split_half(ds, seed=0)
side = fit_side_models(opt_half, seed=1,
                       settings=TrainSettings(folds=3, arch_grid=((16,),),
                                              epochs=120))
names = ds.schema.treatment_names()
student = val_half.X[7]
x_bar_T = student[list(ds.schema.treatment_idx)]

print("variants: f (non-causal), fprime-noopt (weighting opaque to the")
print("gradient), fprime-opt (chain rule through the APS), g (chain rule")
print("plus a pull toward each treatment's expected assignment)\n")

for variant in Variant:
    f = side.f_plain if variant is Variant.NON_CAUSAL_F else side.f_weighted
    cfg = OptimizationConfig(budget=3.0, variant=variant,
                             lam=0.05 if variant is Variant.G else 0.0)
    res = ci.optimize(student, f, side.H, side.gps, ds.schema, cfg)
    print(f"--- {variant.value} ---")
    print(f"objective {res.objective_trace[0]:.4f} -> "
          f"{res.objective_trace.min():.4f} in {res.iterations_used} iterations,"
          f" budget spent {res.cost_spent:.2f} of {cfg.budget}")
    for j, name in enumerate(names):
        d = res.x_T_star[j] - x_bar_T[j]
        if abs(d) > 1e-3:
            print(f"    {name:<10s} {x_bar_T[j]:5.2f} -> {res.x_T_star[j]:5.2f} "
                  f"({d:+.2f}), APS {res.aps_star.density[j]:.2f}")
    print()

print("the g policy stays near the propensity ridge (high APS at its")
print("recommendations); the blind variants trade plausibility for descent")
