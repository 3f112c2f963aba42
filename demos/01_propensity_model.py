"""Fit the per-treatment assignment GPs and look at the propensity surface.

Each treatment is modeled as a Gaussian process over the control features.
The reconstructed predictive distribution at an instance's controls turns any
candidate treatment value into a density -- the approximate propensity score
-- which is highest where the treatment matches what the assignment mechanism
would be expected to produce for that student.

Run from the repository root:  python demos/01_propensity_model.py
"""

import numpy as np

import causalinv as ci

ds = ci.normalize(ci.load_dataset("data/students.csv",
                                  "data/students_schema.json"))
opt_half, val_half = ci.split_half(ds, seed=0)
names = ds.schema.treatment_names()

print(f"{ds.n} students, {ds.X.shape[1]} features, "
      f"{len(names)} treatments: {', '.join(names)}\n")

print("fitting one assignment GP per treatment (marginal-likelihood ascent)")
gps = []
for j, name in enumerate(names):
    X, t = opt_half.controls(), opt_half.treatments()[:, j]
    kernel, _ = ci.search_hypers(X, t, ci.KernelConfig(2.0, 1.0, 0.05), seed=j)
    gp = ci.fit_gp(X, t, kernel)
    gps.append(gp)
    means, stds = ci.predict_batch(gp, val_half.controls())
    resid = val_half.treatments()[:, j] - means
    print(f"  {name:<10s} lengthscale={gp.kernel.lengthscale:6.2f} "
          f"noise={gp.kernel.noise_variance:.4f} "
          f"held-out RMSE={np.sqrt(np.mean(resid ** 2)):.3f} "
          f"(target sd {val_half.treatments()[:, j].std():.3f})")

student = val_half.X[5]
x_C = student[list(ds.schema.control_idx)]
x_T = student[list(ds.schema.treatment_idx)]
means, stds = ci.treatment_profile(gps, x_C)
phi = ci.aps(x_T, means, stds)

print("\none student's treatments vs their expected assignment:")
print(f"  {'treatment':<10s} {'current':>8s} {'expected':>9s} {'sd':>6s} {'APS':>6s}")
for j, name in enumerate(names):
    print(f"  {name:<10s} {x_T[j]:8.3f} {means[j]:9.3f} {stds[j]:6.3f} {phi[j]:6.3f}")

print("\nsliding one treatment across [0, 1] to see the density shape:")
j = 0
grid = np.linspace(0, 1, 9)
dens = [ci.aps(np.array([g]), means[[j]], stds[[j]])[0] for g in grid]
for g, d in zip(grid, dens):
    bar = "#" * int(40 * d / max(dens))
    print(f"  {names[j]}={g:4.2f}  {d:5.2f}  {bar}")
print("\nthe peak sits at the GP's expected assignment; the weighting")
print("x' = APS * x shrinks implausible treatment values toward zero")
