import csv
import json
import os

import numpy as np
import pytest

from causalinv import synth
from causalinv.cli import _safe_name, main
from causalinv.data import Dataset, denormalize, load_dataset, normalize, split_half
from causalinv.gp import gp_from_dict
from causalinv.optimize import OptimizationError

FAST = ["--folds", "2", "--epochs", "20", "--arch", "4", "--gp-restarts", "1"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    csv_path, schema_path = synth.write_corpus(str(d), n=80, seed=5)
    return csv_path, schema_path


def _train(corpus, out, seed="3"):
    csv_path, schema_path = corpus
    return main(["train", "--data", csv_path, "--schema", schema_path,
                 "--out", str(out), "--seed", seed] + FAST)


class TestTrain:
    def test_writes_manifest_and_models(self, corpus, tmp_path):
        assert _train(corpus, tmp_path / "run") == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["n"] == 80 and manifest["n_opt"] == 40
        assert manifest["classifiers"]["weighted"]["arch"] == [4]
        models = os.listdir(tmp_path / "run" / "models")
        assert "classifier_weighted.json" in models
        assert "indirect.json" in models
        assert sum(name.startswith("gp_") for name in models) == 6

    def test_rerun_identical_bytes(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _train(corpus, a) == 0
        assert _train(corpus, b) == 0
        for name in ["manifest.json", "models/classifier_weighted.json",
                     "models/classifier_plain.json", "models/indirect.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_reports_gp_diagnostics(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert sorted(manifest["gps"]) == sorted(manifest["treatments"])
        for name, diag in manifest["gps"].items():
            path = trained / "models" / f"gp_{_safe_name(name)}.json"
            gp = gp_from_dict(json.loads(path.read_text()))
            assert abs(diag["log_marginal"] - gp.log_marginal) <= (
                1e-9 * abs(gp.log_marginal))
            assert diag["jitter"] == gp.jitter
            assert set(diag["at_bound"]) <= {"lengthscale", "signal_variance",
                                             "noise_variance"}

    def test_missing_schema_exit_2(self, corpus, tmp_path, capsys):
        csv_path, _ = corpus
        code = main(["train", "--data", csv_path, "--schema",
                     str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "schema not found" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert _train(corpus, out) == 0
    return out


class TestOptimize:
    def test_zero_budget_zero_deltas(self, corpus, trained, tmp_path):
        csv_path, schema_path = corpus
        out = tmp_path / "pol0"
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(out), "--artifacts", str(trained),
                     "--budget", "0", "--max-iters", "30"])
        assert code == 0
        records = json.loads((out / "policies.json").read_text())
        assert len(records) == 40  # floor(80 / 2) validation rows
        for rec in records:
            assert all(d == 0.0 for d in rec["delta"])

    def test_budget_respected(self, corpus, trained, tmp_path):
        csv_path, schema_path = corpus
        out = tmp_path / "pol2"
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(out), "--artifacts", str(trained),
                     "--budget", "2", "--variant", "g", "--lambda", "1",
                     "--max-iters", "60", "--instances", "0,3,5"])
        assert code == 0
        records = json.loads((out / "policies.json").read_text())
        assert [r["row"] for r in records] == [0, 3, 5]
        for rec in records:
            assert rec["cost"] <= 2.0 + 1e-8

    def test_raw_values(self, corpus, trained, tmp_path):
        csv_path, schema_path = corpus
        out = tmp_path / "raw"
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(out), "--artifacts", str(trained),
                     "--budget", "2", "--variant", "g", "--lambda", "0.1",
                     "--max-iters", "60", "--instances", "0,3,5"])
        assert code == 0
        records = json.loads((out / "policies.json").read_text())
        raw = load_dataset(csv_path, schema_path)
        _, raw_val = split_half(raw, 3)
        _, val = split_half(normalize(raw), 3)
        t_idx = list(raw.schema.treatment_idx)
        assert any(any(d != 0.0 for d in rec["delta"]) for rec in records)
        for rec in records:
            i = rec["row"]
            # original_raw: the row's treatment cells as read from the CSV
            np.testing.assert_allclose(rec["original_raw"],
                                       raw_val.X[i, t_idx], rtol=0, atol=1e-12)
            # optimized_raw: the optimized treatments mapped back to raw units
            x_star = val.X[i].copy()
            x_star[t_idx] = rec["optimized"]
            opt_row = Dataset(X=x_star[None], y=val.y[[i]], schema=val.schema,
                              norm_params=val.norm_params)
            assert rec["optimized_raw"] == denormalize(opt_row)[0, t_idx].tolist()

    @pytest.mark.parametrize("position", ["999", "-1"])
    def test_instances_outside_validation_half(self, corpus, trained, tmp_path,
                                               capsys, position):
        csv_path, schema_path = corpus
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "bad"), "--artifacts", str(trained),
                     "--budget", "1", "--instances", f"0,{position}"])
        assert code == 2
        assert f"--instances position {position} outside" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "policies.json").exists()

    def test_failing_row_named(self, corpus, trained, tmp_path, capsys,
                               monkeypatch):
        import causalinv.cli as cli
        real, calls = cli.optimize, []

        def fail_second(x_bar, f, H, gps, schema, cfg):
            calls.append(x_bar)
            if len(calls) == 2:
                raise OptimizationError("non-finite gradient at iteration 4")
            return real(x_bar, f, H, gps, schema, cfg)

        monkeypatch.setattr(cli, "optimize", fail_second)
        csv_path, schema_path = corpus
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "fail"), "--artifacts", str(trained),
                     "--budget", "1", "--max-iters", "30",
                     "--instances", "0,3,5"])
        assert code == 1
        err = capsys.readouterr().err
        assert ("--instances position 3: non-finite gradient at iteration 4"
                in err)
        assert not (tmp_path / "fail" / "policies.json").exists()

    @pytest.mark.parametrize("flags", [["--variant", "g,f"],
                                       ["--lambda", "0.1,5"],
                                       ["--lambda", "0.1", "--lambda", "5"]])
    def test_more_than_one_variant_or_lambda_exit_2(self, corpus, trained,
                                                     tmp_path, capsys, flags):
        csv_path, schema_path = corpus
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "many"), "--artifacts",
                     str(trained), "--budget", "1"] + flags)
        assert code == 2
        assert f"optimize expects exactly one {flags[0]}" in capsys.readouterr().err
        assert not (tmp_path / "many" / "policies.json").exists()

    def test_seed_flag_rejected(self, corpus, trained, tmp_path, capsys):
        # the split follows the seed in the manifest, so that only
        # validation-half rows are ever served
        csv_path, schema_path = corpus
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--data", csv_path, "--schema", schema_path,
                  "--out", str(tmp_path / "s"), "--artifacts", str(trained),
                  "--budget", "1", "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_treatments_differing_from_manifest_exit_2(self, corpus, trained,
                                                       tmp_path, capsys):
        csv_path, schema_path = corpus
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        a, b = rows[0].index("studytime"), rows[0].index("goout")
        for row in rows:
            row[a], row[b] = row[b], row[a]
        swapped = tmp_path / "swapped.csv"
        with open(swapped, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        schema["treatment"].remove("absences")
        schema["control"].append("absences")
        for key in ("cost_up", "cost_down", "lower", "upper"):
            del schema[key]["absences"]
        fewer = tmp_path / "fewer.json"
        fewer.write_text(json.dumps(schema))
        trained_on = json.loads((trained / "manifest.json").read_text())["treatments"]
        for data, schema_file in ((str(swapped), schema_path),
                                  (csv_path, str(fewer))):
            code = main(["optimize", "--data", data, "--schema", schema_file,
                         "--out", str(tmp_path / "t"), "--artifacts",
                         str(trained), "--budget", "1"])
            err = capsys.readouterr().err
            assert code == 2
            assert str(trained_on) in err
            assert str(list(load_dataset(data, schema_file).schema
                            .treatment_names())) in err
        assert not (tmp_path / "t" / "policies.json").exists()

    def test_missing_artifacts_exit_2(self, corpus, tmp_path, capsys):
        csv_path, schema_path = corpus
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "y"), "--budget", "1"])
        assert code == 2
        assert "artifacts not found" in capsys.readouterr().err


class TestEvaluate:
    def test_sweep_outputs_and_determinism(self, corpus, tmp_path):
        csv_path, schema_path = corpus
        args = ["evaluate", "--data", csv_path, "--schema", schema_path,
                "--seed", "4", "--budget", "0,1", "--lambda", "0,0.5",
                "--variant", "g,f", "--max-iters", "40"] + FAST
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        csv1 = (out1 / "sweep.csv").read_bytes()
        assert csv1 == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        # header + 2 metrics x (2 budgets x 2 lambdas for g + 2 budgets for f)
        assert len(csv1.decode().strip().splitlines()) == 1 + 2 * (4 + 2)

    def test_empty_sweep_rejected(self, corpus, tmp_path, capsys):
        csv_path, schema_path = corpus
        code = main(["evaluate", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "z"), "--budget", ""])
        assert code == 2
        assert "empty sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, corpus, tmp_path, capsys, jobs):
        csv_path, schema_path = corpus
        code = main(["evaluate", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "j"), "--budget", "0",
                     "--jobs", jobs])
        assert code == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--budget", "-1"], "budget must be nonnegative"),
        (["--budget", "1", "--step", "-1"], "step size must be nonnegative"),
        (["--budget", "1", "--max-iters", "0"], "max_iters must be at least 1")])
    def test_bad_cell_exit_2_before_fitting(self, corpus, tmp_path,
                                            monkeypatch, capsys, flags,
                                            message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_side_models called")

        monkeypatch.setattr("causalinv.experiment.fit_side_models", no_fit)
        csv_path, schema_path = corpus
        code = main(["evaluate", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "c")] + flags)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_bad_env_seed_named(self, corpus, tmp_path, monkeypatch, capsys):
        csv_path, schema_path = corpus
        monkeypatch.setenv("PROPHIT_SEED", "abc")
        code = main(["evaluate", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "bad"), "--budget", "0"])
        assert code == 2
        assert "PROPHIT_SEED must be an integer, got 'abc'" in (
            capsys.readouterr().err)

    def test_env_seed_fallback(self, corpus, tmp_path, monkeypatch):
        csv_path, schema_path = corpus
        monkeypatch.setenv("PROPHIT_SEED", "11")
        out = tmp_path / "env"
        code = main(["evaluate", "--data", csv_path, "--schema", schema_path,
                     "--out", str(out), "--budget", "0", "--variant", "f",
                     "--max-iters", "20"] + FAST)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 11
