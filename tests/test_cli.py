import csv
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from causalinv import synth
from causalinv.cli import _gp_file, main
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


BAD_TRAINING = [
    (["--folds", "1"], "--folds must be at least 2, got 1"),
    (["--epochs", "-1"], "--epochs must be at least 1, got -1"),
    (["--gp-restarts", "-2"], "--gp-restarts must be at least 0, got -2"),
    (["--arch", "0"], "--arch widths must be at least 1, got 0"),
    (["--arch", "16", "--arch", "8x0"], "--arch widths must be at least 1, got 8x0"),
    (["--arch", "4", "--arch", "8,4"], "--arch 4 is given more than once"),
]


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("flags, message", BAD_TRAINING)
def test_bad_training_setting_exit_2_before_fitting(corpus, tmp_path,
                                                    monkeypatch, capsys,
                                                    command, flags, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_side_models called")

    monkeypatch.setattr("causalinv.cli.fit_side_models", no_fit)
    monkeypatch.setattr("causalinv.experiment.fit_side_models", no_fit)
    csv_path, schema_path = corpus
    out = tmp_path / "bad"
    sweep = ["--budget", "0"] if command == "evaluate" else []
    code = main([command, "--data", csv_path, "--schema", schema_path,
                 "--out", str(out)] + sweep + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_folds_above_half_rows_exit_2_before_gp_fits(corpus, tmp_path,
                                                    monkeypatch, capsys,
                                                    command):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_gp called")

    monkeypatch.setattr("causalinv.experiment.fit_gp", no_fit)
    csv_path, schema_path = corpus
    out = tmp_path / "folds"
    sweep = ["--budget", "0"] if command == "evaluate" else []
    code = main([command, "--data", csv_path, "--schema", schema_path,
                 "--out", str(out), "--folds", "400"] + sweep)
    assert code == 2
    assert ("--folds must be at most 40, the rows of a training half, "
            "got 400") in capsys.readouterr().err
    assert not out.exists()


# search settings that would make every search fail or score NaN; an
# infinite budget stays legal
BAD_SEARCH = [
    (["--budget", "nan", "--variant", "g"], "--budget must be nonnegative, got nan"),
    (["--budget", "1", "--step", "nan"],
     "--step: step size must be nonnegative and finite, got nan"),
    (["--budget", "1", "--step", "inf"],
     "--step: step size must be nonnegative and finite, got inf"),
    (["--budget", "1", "--lambda", "nan"],
     "--lambda: lambda must be nonnegative and finite, got nan"),
    (["--budget", "1", "--max-iters", "0"], "--max-iters must be at least 1, got 0"),
]


@pytest.mark.parametrize("flags, message", BAD_SEARCH + [
    (["--budget", "1", "--print-limit", "-1"],
     "--print-limit must be at least 0, got -1")])
def test_bad_search_setting_optimize_exit_2_before_loading(corpus, tmp_path,
                                                           monkeypatch, capsys,
                                                           flags, message):
    def no_load(*args, **kwargs):
        raise AssertionError("data or artifacts loaded")

    monkeypatch.setattr("causalinv.cli.load_dataset", no_load)
    monkeypatch.setattr("causalinv.cli._load_artifacts", no_load)
    csv_path, schema_path = corpus
    out = tmp_path / "bad"
    code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                 "--out", str(out)] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestTrain:
    def test_writes_manifest_and_models(self, corpus, tmp_path):
        assert _train(corpus, tmp_path / "run") == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["n"] == 80 and manifest["n_opt"] == 40
        assert manifest["classifiers"]["weighted"]["arch"] == [4]
        # the fingerprint of the data's values as loaded, before normalizing
        assert manifest["data_sha256"] == hashlib.sha256(
            load_dataset(*corpus).X.tobytes()).hexdigest()
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
        # the SGD constants are recorded beside the settings
        assert manifest["settings"]["lr"] == 0.05
        assert manifest["settings"]["batch"] == 32
        assert sorted(manifest["gps"]) == sorted(manifest["treatments"])
        for name, diag in manifest["gps"].items():
            path = trained / "models" / _gp_file(name)
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
        assert str(tmp_path / "nope.json") in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", [
        (lambda text: text[:text.index("[") + 1], "Expecting value"),
        (lambda text: text.replace('"label"', '"labels"'),
         "missing field 'label'"),
        (lambda text: text.replace('"control": [', '"control": 5, "was": ['),
         "field 'control' must be a list of strings, got 5")])
    def test_bad_schema_exit_2_naming_file(self, corpus, tmp_path, capsys,
                                           cut, message):
        csv_path, schema_path = corpus
        with open(schema_path, encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / "bad_schema.json"
        bad.write_text(cut(text), encoding="utf-8")
        code = main(["train", "--data", csv_path, "--schema", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flags, env, message", [
    ("train", ["--seed", "-1"], None, "--seed must be at least 0, got -1"),
    ("evaluate", ["--budget", "0"], "-3",
     "PROPHIT_SEED must be at least 0, got -3")])
def test_negative_seed_exit_2_before_loading(corpus, tmp_path, monkeypatch,
                                             capsys, command, flags, env,
                                             message):
    def no_load(*args, **kwargs):
        raise AssertionError("data loaded")

    monkeypatch.setattr("causalinv.cli.load_dataset", no_load)
    if env is not None:
        monkeypatch.setenv("PROPHIT_SEED", env)
    csv_path, schema_path = corpus
    out = tmp_path / "neg"
    code = main([command, "--data", csv_path, "--schema", schema_path,
                 "--out", str(out)] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _nan_first_weight(doc):
    doc["weights"][0][0][0] = float("nan")


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

    def test_row_count_differing_from_manifest_exit_2(self, trained, tmp_path,
                                                      capsys):
        # same schema and treatments, other data: the manifest's n tells
        csv_path, schema_path = synth.write_corpus(str(tmp_path / "other"),
                                                   n=120, seed=5)
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "t"), "--artifacts", str(trained),
                     "--budget", "1", "--instances", "0,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "manifest.json" in err
        assert "data of 80 rows, but the data has 120" in err
        assert not (tmp_path / "t" / "policies.json").exists()

    def test_other_data_of_same_row_count_exit_2(self, trained, tmp_path,
                                                 capsys):
        # same schema, treatments and row count, other rows: the manifest's
        # fingerprint of the training data tells
        csv_path, schema_path = synth.write_corpus(str(tmp_path / "other"),
                                                   n=80, seed=12345)
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "t"), "--artifacts", str(trained),
                     "--budget", "1", "--instances", "0,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(trained / "manifest.json") in err
        assert "trained on data of SHA-256" in err
        assert not (tmp_path / "t" / "policies.json").exists()

    @pytest.mark.parametrize("name, key, value, flags", [
        ("gp_goout.json", "lengthscale", float("nan"), ["--variant", "f"]),
        ("gp_goout.json", "lengthscale", float("nan"),
         ["--variant", "g", "--lambda", "0.1"]),
        ("gp_Dalc.json", "noise_variance", float("inf"), ["--variant", "g"]),
        ("indirect.json", "n_indirect", None, ["--variant", "f"]),
        ("classifier_weighted.json", "weighted", None, ["--variant", "g"])])
    def test_bad_model_document_named(self, corpus, trained, tmp_path, capsys,
                                      name, key, value, flags):
        # a non-finite hyperparameter (or, with value None, a missing field)
        # fails at load time, naming the file and the field
        art = tmp_path / "art"
        shutil.copytree(trained, art)
        path = art / "models" / name
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        csv_path, schema_path = corpus
        out = tmp_path / "bad"
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(out), "--artifacts", str(art),
                     "--budget", "1"] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert name in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("name, field, mutate, variant", [
        ("manifest.json", "treatments", lambda d: d.pop("treatments"), "g"),
        ("manifest.json", "format", lambda d: d.update(format="nope"), "g"),
        ("manifest.json", "seed", lambda d: d.update(seed="zero"), "g"),
        ("models/classifier_weighted.json", "weights",
         _nan_first_weight, "g"),
        ("models/indirect.json", "weights",
         _nan_first_weight, "g"),
        ("models/classifier_weighted.json", "weights",
         lambda d: d["weights"][0].pop(), "g"),
        ("models/classifier_plain.json", "n_controls",
         lambda d: d.update(n_controls=d["n_controls"] + 1), "f")])
    def test_bad_artifact_field_named(self, corpus, trained, tmp_path, capsys,
                                      name, field, mutate, variant):
        # a manifest field, or a network's weights or widths, that would fail
        # or pass unnoticed later fails at load time, naming file and field
        art = tmp_path / "art"
        shutil.copytree(trained, art)
        path = art / name
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        csv_path, schema_path = corpus
        out = tmp_path / "bad"
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(out), "--artifacts", str(art), "--budget",
                     "1", "--variant", variant, "--lambda", "0.1",
                     "--instances", "0,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: " in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("name, key", [("manifest.json", "treatments"),
                                           ("manifest.json", "data_sha256"),
                                           ("models/indirect.json", "n_indirect")])
    def test_missing_field_named(self, corpus, trained, tmp_path, capsys,
                                 name, key):
        art = tmp_path / "art"
        shutil.copytree(trained, art)
        path = art / name
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        csv_path, schema_path = corpus
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "bad"), "--artifacts", str(art),
                     "--budget", "1", "--instances", "0"])
        assert code == 2
        assert f"error: {path}: missing field '{key}'" in capsys.readouterr().err

    def test_missing_artifacts_exit_2(self, corpus, tmp_path, capsys):
        csv_path, schema_path = corpus
        code = main(["optimize", "--data", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "y"), "--budget", "1"])
        assert code == 2
        assert str(tmp_path / "y" / "manifest.json") in capsys.readouterr().err


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

    @pytest.mark.parametrize("flags, message", BAD_SEARCH + [
        (["--budget", "-1"], "budget must be nonnegative"),
        (["--budget", "1", "--step", "-1"], "step size must be nonnegative")])
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
