"""Train the outcome classifiers and the indirect-feature estimator.

Two classifiers are fit with cross-validated architecture selection: a plain
one on raw features and a propensity-corrected one whose treatment inputs are
weighted by the APS. The indirect estimator regresses the indirectly
changeable features (aspiration, family relations, health) on controls plus
treatments, so a candidate policy's downstream effects can be re-estimated.

Run from the repository root:  python demos/02_train_classifiers.py
(a few minutes; pass --fast for a reduced grid)
"""

import sys

import numpy as np

import causalinv as ci
from causalinv.experiment import TrainSettings, fit_side_models

fast = "--fast" in sys.argv
settings = (TrainSettings(folds=3, arch_grid=((16,),), epochs=120)
            if fast else TrainSettings())

ds = ci.normalize(ci.load_dataset("data/students.csv",
                                  "data/students_schema.json"))
opt_half, val_half = ci.split_half(ds, seed=0)

print("fitting GPs + indirect estimator + both classifiers on the first half")
side = fit_side_models(opt_half, seed=1, settings=settings)

for label, f in (("propensity-weighted", side.f_weighted),
                 ("plain", side.f_plain)):
    meta = f.training_meta
    print(f"\n{label} classifier: selected hidden layers {meta['arch']} "
          f"(CV log-loss {meta['cv_loss']:.4f})")
    for arch, loss in meta["cv_losses"].items():
        print(f"    {arch:<10s} {loss:.4f}")

# held-out quality of the indirect estimator
pred = side.H.predict(val_half.controls(), val_half.treatments())
rmse = np.sqrt(np.mean((pred - val_half.indirects()) ** 2, axis=0))
print("\nindirect estimator held-out RMSE per feature:")
for name, r in zip((ds.schema.feature_names[j] for j in ds.schema.indirect_idx), rmse):
    print(f"    {name:<12s} {r:.3f}")

# the weighted classifier weights its treatments by their APS, so it needs
# the assignment GPs' predictive (means, stds) at the student's controls
x = val_half.X[0]
x_C = x[list(ds.schema.control_idx)]
x_T = x[list(ds.schema.treatment_idx)]
profile = ci.treatment_profile(side.gps, x_C)
print(f"\none student: plain P(bad grade) = "
      f"{ci.predict_proba(side.f_plain, side.H, x_C, x_T):.3f}, "
      f"corrected = {ci.predict_proba(side.f_weighted, side.H, x_C, x_T, profile):.3f}")
