"""Benchmark of the causalinv train-to-serve path and the tight-budget sweep.

    python3 perfbench/run.py --workload train-serve --seed 1 --seconds 10 --trace 0

Run from the repository root. Every run has three timed phases, driven
through the command-line entry points people use:

* set-up: a fresh process imports causalinv, loads, normalizes and splits
  the corpus (median of several such processes);
* fit: ``causalinv train`` and/or the ``fit_side_models`` calls inside
  ``causalinv evaluate``;
* policies: ``causalinv optimize`` plus iFEE scoring, or the sweep part of
  ``causalinv evaluate``, repeated in whole rounds until it has lasted
  ``--seconds`` (one round in a traced run, so its counts describe one).

Outputs are then checked against computations made here (``checks.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). Progress, the operation
counts and any failed check go to standard error. See README.md.
"""

import os

# One BLAS/OpenMP thread unless the caller chose otherwise; set before numpy
# loads. The thread count changes both the timings and the fitted models.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIPPED_CSV = os.path.join(ROOT, "data", "students.csv")
SHIPPED_SCHEMA = os.path.join(ROOT, "data", "students_schema.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("train-serve", "sweep-tight")
FIT_SEED = 0             # split and training seed of every model fit
SETUP_RUNS = 7           # set-up processes per run; their median is setup_s
CHECK_ROWS = 16          # validation rows at which GP moments are checked
SWEEP_ROWS = 120         # corpus size of sweep-tight
SERVE_BUDGET = 10.0      # train-serve: variant g, lambda 0.1, loose budget


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "causalinv", "__init__.py")):
    fail(f"no causalinv sources under {SRC}; run from a full checkout")
if not (os.path.isfile(SHIPPED_CSV) and os.path.isfile(SHIPPED_SCHEMA)):
    fail("the shipped corpus data/students.csv + schema is missing")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import causalinv  # noqa: E402
from causalinv import cli, experiment, gp, synth  # noqa: E402
from causalinv.data import load_dataset, normalize, split_half  # noqa: E402
from causalinv.experiment import TrainSettings  # noqa: E402

if not os.path.abspath(causalinv.__file__).startswith(SRC + os.sep):
    fail(f"imported causalinv from {causalinv.__file__}, not from {SRC}")

import checks  # noqa: E402
from spans import Tracer, replace_everywhere  # noqa: E402

OPTIMIZE_MODULE = sys.modules["causalinv.optimize"]
# train-serve's validation side: light training keeps a run within budget
LIGHT_SETTINGS = TrainSettings(gp_restarts=0, folds=2, arch_grid=((16,),),
                               epochs=100)


def derive_seed(*parts):
    """The per-side seed ``causalinv evaluate`` derives from its seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_probe():
    """A fixed numpy loop; its time tells host drift from program changes."""
    a = np.random.default_rng(0).random((256, 256))
    t0 = time.perf_counter()
    for _ in range(60):
        a = np.tanh(a @ a.T / 256.0)
    return time.perf_counter() - t0


def setup_time(csv_path, schema_path, seed):
    """Median time from process start until the corpus is split."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, SRC, csv_path, schema_path, str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run_cli(argv):
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"causalinv {argv[0]} exited with code {code}")


def data_args(csv_path, schema_path, out, seed):
    return ["--data", csv_path, "--schema", schema_path, "--out", out,
            "--seed", str(seed)]


def gp_file(out, treatment):
    """Where ``causalinv train`` writes a treatment's GP."""
    safe = "".join(ch if ch.isalnum() else "_" for ch in treatment)
    return os.path.join(out, "models", f"gp_{safe}.json")


def bound_args(fn):
    """Maps a call's (args, kwargs) to ``fn``'s parameter names."""
    names = list(inspect.signature(fn).parameters)

    def bind(args, kwargs):
        named = dict(zip(names, args))
        named.update(kwargs)
        return named

    return bind


class Run:
    """What one workload run measured, plus its operation counts."""

    def __init__(self):
        self.tally = checks.Tally()
        self.fits = 0
        self.searches = 0
        self.failed_searches = 0
        self.metrics = {}


# --- train-serve ----------------------------------------------------------

def train_serve(seed, seconds, out, tracer):
    """``causalinv train`` at its defaults and the validation side fitted as
    ``causalinv evaluate`` fits it (light settings), then ``causalinv
    optimize`` for one request from every second validation student, each
    policy scored by iFEE against the validation side.

    The models are fitted with FIT_SEED; the workload seed draws the order
    in which the students ask.
    """
    run = Run()
    csv_path, schema_path = SHIPPED_CSV, SHIPPED_SCHEMA
    setup_s = setup_time(csv_path, schema_path, FIT_SEED)
    raw = load_dataset(csv_path, schema_path)
    ds = normalize(raw)
    _, val = split_half(ds, FIT_SEED)
    requests = np.random.default_rng(seed).permutation(np.arange(0, val.n, 2))
    if tracer:
        tracer.start()

    t0 = time.perf_counter()
    run_cli(["train"] + data_args(csv_path, schema_path, out, FIT_SEED))
    val_side = experiment.fit_side_models(val, derive_seed(FIT_SEED, 2),
                                          LIGHT_SETTINGS)
    train_s = time.perf_counter() - t0
    run.fits = 2

    policy_s, rounds = 0.0, 0
    while rounds == 0 or (policy_s < seconds and not tracer):
        t0 = time.perf_counter()
        run_cli(["optimize", "--data", csv_path, "--schema", schema_path,
                 "--out", out, "--budget", str(SERVE_BUDGET), "--variant", "g",
                 "--lambda", "0.1", "--print-limit", "0", "--instances",
                 ",".join(str(i) for i in requests)])
        with open(os.path.join(out, "policies.json"), encoding="utf-8") as fh:
            records = json.load(fh)
        effs = np.array([
            experiment.ifee(val_side.f_weighted, val_side.H, val_side.gps,
                            ds.schema, val.X[r["row"]],
                            np.asarray(r["optimized"]), weighted=True)
            for r in records])
        policy_s += time.perf_counter() - t0
        rounds += 1
        run.searches += len(requests)
        run.failed_searches += len(requests) - len(records)
    if tracer:
        tracer.stop()
    log(f"train-serve: fit {train_s:.3f} s, {rounds} policy round(s) "
        f"{policy_s:.3f} s")

    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    rows = np.array([r["row"] for r in records])
    XT_bar = val.treatments()[rows]
    XT_star = np.array([r["optimized"] for r in records])
    density = np.array([r["aps"] for r in records])
    aps_mean = checks.filtered_aps(density, XT_bar, XT_star)
    run.metrics = {
        "setup_s": setup_s, "train_s": train_s,
        "policies_per_s": run.searches / policy_s,
        "ifee_mean": float(np.mean(effs)), "aps_mean": aps_mean,
        "cv_loss": float(np.mean([
            manifest["classifiers"]["weighted"]["cv_loss"],
            val_side.f_weighted.training_meta["cv_loss"]])),
    }

    # checks, outside the timed phases
    t = run.tally
    t.expect([r["row"] for r in records] == requests.tolist(),
             f"{len(records)} policies for {len(requests)} requests")
    XC = val.controls()[rows]
    Xq = val.controls()[:CHECK_ROWS]
    opt_gps = []
    for name in manifest["treatments"]:
        with open(gp_file(out, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        model = gp.gp_from_dict(doc)
        opt_gps.append(model)
        means, stds = gp.predict_batch(model, Xq)
        checks.check_gp(t, f"served GP {name}", dict(doc, jitter=model.jitter),
                        Xq, means, stds)
    for name, model in zip(manifest["treatments"], val_side.gps):
        means, stds = gp.predict_batch(model, Xq)
        checks.check_gp(t, f"validation GP {name}", checks.gp_params(model),
                        Xq, means, stds)
    raw_schema = checks.RawSchema(schema_path, manifest["treatments"],
                                  raw.treatments())
    checks.check_policies(t, "served policy", raw_schema, XT_bar, XT_star,
                          SERVE_BUDGET)
    checks.check_ifee(t, "served policies",
                      checks.ifee_values(val_side.f_weighted, val_side.H,
                                         val_side.gps, XC, XT_bar, XT_star),
                      effs)
    checks.check_aps(t, "served policies", opt_gps, XC, XT_bar, XT_star,
                     aps_mean)
    for side, meta in (("served weighted", manifest["classifiers"]["weighted"]),
                       ("served plain", manifest["classifiers"]["plain"]),
                       ("validation weighted", val_side.f_weighted.training_meta),
                       ("validation plain", val_side.f_plain.training_meta)):
        checks.check_selected_arch(t, side, meta)
    return run


# --- sweep-tight ----------------------------------------------------------

class SweepCapture:
    """Times the ``fit_side_models`` calls inside ``causalinv evaluate`` and
    keeps the last sweep's fitted models and policies for the checks."""

    def __init__(self):
        self.fit_s = 0.0
        self.sides = []
        self.policies = []  # (x_bar, cfg, x_T_star)

    def install(self):
        fit = experiment.fit_side_models
        opt = OPTIMIZE_MODULE.optimize
        opt_args = bound_args(opt)

        @functools.wraps(fit)
        def timed_fit(*args, **kwargs):
            t0 = time.perf_counter()
            side = fit(*args, **kwargs)
            self.fit_s += time.perf_counter() - t0
            self.sides.append(side)
            return side

        @functools.wraps(opt)
        def kept_optimize(*args, **kwargs):
            res = opt(*args, **kwargs)
            a = opt_args(args, kwargs)
            self.policies.append((a["x_bar"], a["cfg"], res.x_T_star))
            return res

        replace_everywhere(fit, timed_fit)
        replace_everywhere(opt, kept_optimize)


def sweep_tight(seed, seconds, out, tracer):
    """``causalinv evaluate`` at its default training settings on a 120-row
    synthetic corpus: budgets 0 and 1 for variants g (lambda 0.1),
    fprime-noopt and f.

    Its inputs do not depend on the workload seed: the corpus is written at
    the synth module's default seed and evaluated with FIT_SEED, because
    every input of ``evaluate`` also feeds its model fits.
    """
    del seed
    run = Run()
    csv_path, schema_path = synth.write_corpus(os.path.join(out, "corpus"),
                                               n=SWEEP_ROWS,
                                               seed=synth.DEFAULT_SEED)
    setup_s = setup_time(csv_path, schema_path, FIT_SEED)
    raw = load_dataset(csv_path, schema_path)
    ds = normalize(raw)
    _, val = split_half(ds, FIT_SEED)
    capture = SweepCapture()
    capture.install()
    if tracer:
        tracer.start()

    train_s = policy_s = 0.0
    rounds = 0
    while rounds == 0 or (policy_s < seconds and not tracer):
        capture.sides.clear()
        capture.policies.clear()
        fit_before = capture.fit_s
        t0 = time.perf_counter()
        run_cli(["evaluate"] + data_args(csv_path, schema_path, out, FIT_SEED)
                + ["--budget", "0,1", "--variant", "g,fprime-noopt,f",
                   "--lambda", "0.1", "--jobs", "1"])
        wall = time.perf_counter() - t0
        fit = capture.fit_s - fit_before
        train_s += fit
        policy_s += wall - fit
        rounds += 1
        run.fits += len(capture.sides)
        run.searches += len(capture.policies)
    if tracer:
        tracer.stop()
    log(f"sweep-tight: fit {train_s:.3f} s, sweep {policy_s:.3f} s, "
        f"{rounds} round(s)")

    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    cells = report["cells"]
    run.failed_searches = rounds * sum(c["n_failed"] for c in cells)
    positive = [c for c in cells if c["budget"] > 0]
    opt_side, val_side = capture.sides
    run.metrics = {
        "setup_s": setup_s, "train_s": train_s / rounds,
        "policies_per_s": run.searches / policy_s,
        "ifee_mean": float(np.mean([c["ifee_mean"] for c in positive])),
        "aps_mean": float(np.mean([c["aps_mean"] for c in positive])),
        "cv_loss": float(np.mean([s.f_weighted.training_meta["cv_loss"]
                                  for s in capture.sides])),
    }

    # checks, outside the timed phases
    t = run.tally
    for c in cells:
        checks.check_cell(t, c)
    t.expect(len(capture.policies) == len(cells) * val.n,
             f"{len(capture.policies)} searches for {len(cells)} cells x "
             f"{val.n} rows")
    Xq = val.controls()[:CHECK_ROWS]
    names = ds.schema.treatment_names()
    for side_name, side in (("optimization", opt_side), ("validation", val_side)):
        for name, model in zip(names, side.gps):
            means, stds = gp.predict_batch(model, Xq)
            checks.check_gp(t, f"{side_name} GP {name}", checks.gp_params(model),
                            Xq, means, stds)
        checks.check_selected_arch(t, f"{side_name} weighted",
                                   side.f_weighted.training_meta)
        checks.check_selected_arch(t, f"{side_name} plain",
                                   side.f_plain.training_meta)
    raw_schema = checks.RawSchema(schema_path, names, raw.treatments())
    c_idx, t_idx = list(ds.schema.control_idx), list(ds.schema.treatment_idx)
    for c in cells:
        key = (c["variant"], c["budget"], c["lambda"])
        mine = [(x_bar, x_star) for x_bar, cfg, x_star in capture.policies
                if (cfg.variant.value, cfg.budget, cfg.lam) == key]
        X_bar = np.array([x for x, _ in mine]).reshape(len(mine), -1)
        XT_star = np.array([x for _, x in mine]).reshape(len(mine), -1)
        label = f"cell {key}"
        checks.check_policies(t, label, raw_schema, X_bar[:, t_idx], XT_star,
                              c["budget"])
        if c["budget"] > 0:
            f_val = val_side.f_plain if c["variant"] == "f" else val_side.f_weighted
            ours = checks.ifee_values(f_val, val_side.H, val_side.gps,
                                      X_bar[:, c_idx], X_bar[:, t_idx], XT_star)
            checks.check_ifee(t, label, float(np.mean(ours)), c["ifee_mean"])
            checks.check_aps(t, label, opt_side.gps, X_bar[:, c_idx],
                             X_bar[:, t_idx], XT_star, c["aps_mean"])
    return run


# --- per-layer metrics ----------------------------------------------------

class LayerTrace(Tracer):
    """Tracer with the counters the per-layer metrics need."""

    def __init__(self):
        super().__init__()
        self.search_s = []

    def start(self):
        self.install(self._hooks())

    def stop(self):
        self.uninstall()

    def _hooks(self):
        opt_args = bound_args(OPTIMIZE_MODULE.optimize)
        proj_args = bound_args(OPTIMIZE_MODULE.project)

        def on_fit(args, kwargs, model, _):
            self.add("gp.lml_per_row",
                     float(model.log_marginal) / len(model.train_targets))
            self.add("gp.jittered", int(model.jitter > 0))

        def on_search(args, kwargs, res, seconds):
            a = opt_args(args, kwargs)
            cfg = a["cfg"]
            x_bar_T = np.asarray(a["x_bar"])[list(a["schema"].treatment_idx)]
            self.search_s.append(seconds)
            self.add("optimize.iterations", res.iterations_used)
            self.add("optimize.max_iter_stops",
                     int(res.iterations_used >= cfg.max_iters))
            self.add("optimize.null_policies",
                     int(cfg.budget > 0 and np.array_equal(res.x_T_star, x_bar_T)))

        def on_project(args, kwargs, x, _):
            a = proj_args(args, kwargs)
            self.add("optimize.project_binding",
                     int(not np.array_equal(x, np.clip(a["x"], a["l"], a["u"]))))

        return {"gp.fit_gp": on_fit, "optimize.optimize": on_search,
                "optimize.project": on_project}

    def metrics(self, probes):
        tot = self.totals()

        def calls(n):
            return tot.get(n, (0, 0.0, 0.0))[0]

        def total(n):
            return tot.get(n, (0, 0.0, 0.0))[1]

        def self_time(prefix):
            return sum(v[2] for k, v in tot.items() if k.startswith(prefix))

        ms = np.array(self.search_s) * 1e3
        c = self.counts
        return {
            "data.load_s": total("data.load_dataset") + total("data.normalize")
            + total("data.split_half"),
            "gp.fit_s": total("gp.fit_gp"), "gp.fits": calls("gp.fit_gp"),
            "gp.lml_per_row": c.get("gp.lml_per_row", 0.0)
            / max(calls("gp.fit_gp"), 1),
            "gp.jittered": c.get("gp.jittered", 0),
            "gp.profile_s": total("gp.treatment_profile"),
            "gp.profiles": calls("gp.treatment_profile"),
            "gp.predict_s": total("gp.predict_batch"),
            "gp.predicts": calls("gp.predict_batch"),
            "nets.classifier_fit_s": total("nets.train_classifier"),
            "nets.indirect_fit_s": total("nets.train_indirect"),
            "nets.predict_s": total("nets.predict_proba"),
            "nets.predicts": calls("nets.predict_proba"),
            "nets.grad_s": total("nets.grad_wrt_treatments"),
            "nets.grads": calls("nets.grad_wrt_treatments"),
            "optimize.searches": calls("optimize.optimize"),
            "optimize.search_s": tot.get("optimize.optimize", (0, 0.0, 0.0))[2],
            "optimize.iterations": c.get("optimize.iterations", 0),
            "optimize.max_iter_stops": c.get("optimize.max_iter_stops", 0),
            "optimize.null_policies": c.get("optimize.null_policies", 0),
            "optimize.search_ms_p50": float(np.percentile(ms, 50)),
            "optimize.search_ms_p95": float(np.percentile(ms, 95)),
            "optimize.project_s": total("optimize.project"),
            "optimize.projects": calls("optimize.project"),
            "optimize.project_binding": c.get("optimize.project_binding", 0),
            "experiment.fit_s": total("experiment.fit_side_models"),
            "experiment.ifee_s": total("experiment.ifee"),
            "experiment.ifees": calls("experiment.ifee"),
            "experiment.self_s": self_time("experiment."),
            "cli.self_s": self_time("cli."),
            "host.probe_s": float(np.mean(probes)),
        }


def load_units():
    """Metric name to unit, for both metric lists of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="least length of the policy phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tracer = LayerTrace() if args.trace else None
    probes = [host_probe()]
    workload = train_serve if args.workload == "train-serve" else sweep_tight
    run = workload(args.seed, args.seconds, out, tracer)
    probes.append(host_probe())
    run.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    t = run.tally
    log(f"operations: fits {run.fits} attempted, 0 failed; "
        f"policy searches {run.searches} attempted, {run.failed_searches} "
        f"failed; checks {t.attempted} attempted, {len(t.failures)} failed")
    for msg in t.failures[:20]:
        log(f"check failed: {msg}")
    log(f"host probe {probes[0]:.4f} s at start, {probes[1]:.4f} s at end")
    e2e_units, layer_units = load_units()
    values, units = run.metrics, e2e_units
    if tracer:
        tracer.save(os.path.join(out, "spans.npz"))
        values, units = tracer.metrics(probes), layer_units
        for name, value in sorted(run.metrics.items()):
            log(f"  (traced) {name} = {value!r} {e2e_units[name]}")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from "
                           f"BENCHMARK.json's {sorted(units)}")
    for name, value in values.items():
        log(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not t.failures,
        "attempted": run.fits + run.searches + t.attempted,
        "failed": run.failed_searches + len(t.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
