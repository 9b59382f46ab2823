"""End-to-end command-line runs in subprocesses.

Each test drives the installed entry point exactly as a user would and
checks exit codes, file inventories, and byte-for-byte reproducibility.
"""

import json
import math

import numpy as np
import pytest

import masshist.cli
from conftest import run_cli_subprocess
from masshist.core import parse_count_csv

SMALL_CSV = """2,4,8,16
0,1,0,4
2,3,4,9
5,8,6,14
1,2,7,11
"""


def run_cli(cli_env, args, cwd):
    return run_cli_subprocess(cli_env, args, cwd, timeout=900)


def write_small_csv(tmp_path, name="counts.csv"):
    path = tmp_path / name
    path.write_text(SMALL_CSV)
    return str(path)


class TestFitErrors:
    def test_missing_file_is_input_error(self, cli_env, tmp_path):
        r = run_cli(cli_env, ["fit", "no_such.csv", "--model", "lrm"],
                    tmp_path)
        assert r.returncode == 2
        assert "input error" in r.stderr

    def test_empty_file_is_input_error(self, cli_env, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        r = run_cli(cli_env, ["fit", str(p), "--model", "lrm"], tmp_path)
        assert r.returncode == 2

    def test_no_model_choice_is_input_error(self, cli_env, tmp_path):
        r = run_cli(cli_env, ["fit", write_small_csv(tmp_path)], tmp_path)
        assert r.returncode == 2

    def test_single_time_lead_time_fit_is_numerical_error(self, cli_env,
                                                          tmp_path):
        p = tmp_path / "one_time.csv"
        p.write_text("6\n0\n3\n5\n")
        r = run_cli(cli_env, ["fit", str(p), "--model", "ssb",
                              "--mass", "20"], tmp_path)
        assert r.returncode == 3
        assert "fit error" in r.stderr


class TestFitSingleModel:
    def test_writes_fit_and_echo(self, cli_env, tmp_path):
        csv = write_small_csv(tmp_path)
        out = tmp_path / "out"
        r = run_cli(cli_env, ["fit", csv, "--model", "lrm", "--mass", "20",
                              "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        fit = json.loads((out / "fit.json").read_text())
        assert fit["model"] == "lrm"
        assert set(fit["estimates"]) == {"alpha", "beta"}
        assert math.isfinite(fit["loglik"])
        assert fit["std_errors"]["alpha"] > 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["command"] == "fit"
        assert echo["mass"] == 20
        assert echo["re_free_eta"] is True

    def test_no_se_flag(self, cli_env, tmp_path):
        csv = write_small_csv(tmp_path)
        out = tmp_path / "out"
        r = run_cli(cli_env, ["fit", csv, "--model", "lrm", "--mass", "20",
                              "--no-se", "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        fit = json.loads((out / "fit.json").read_text())
        assert fit["std_errors"] is None


class TestFitAllModels:
    def test_bic_table(self, cli_env, tmp_path):
        csv = write_small_csv(tmp_path)
        out = tmp_path / "all"
        r = run_cli(cli_env, ["fit", csv, "--all-models", "--mass", "20",
                              "--no-se", "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (out / "bic.csv").read_text().strip().split("\n")
        assert lines[0] == "model,label,n_params,loglik,delta_bic"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [row[0] for row in rows] == ["lrm", "lrm_plus", "lrm_re",
                                            "ssb", "ssb_plus"]
        by = {row[0]: row for row in rows}
        assert float(by["lrm"][4]) == 0.0
        assert {int(row[2]) for row in rows} == {2, 3, 4, 5, 6}
        for m in ("lrm", "lrm_plus", "lrm_re", "ssb", "ssb_plus"):
            assert (out / f"fit_{m}.json").exists()
        assert "lowest delta-BIC" in r.stdout


SIM_ARGS = ["--schedule", "2,4", "--group-size", "2", "--mass", "10",
            "--horizon", "4", "--seed", "3"]


class TestSimulate:
    def test_outputs_and_reproducibility(self, cli_env, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            r = run_cli(cli_env, ["simulate", *SIM_ARGS, "--out", str(out)],
                        tmp_path)
            assert r.returncode == 0, r.stderr
        for name in ("trajectories.csv", "dataset.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # the echo records the resolved options; only the out path differs
        ea = json.loads((a / "config_echo.json").read_text())
        eb = json.loads((b / "config_echo.json").read_text())
        ea.pop("out"), eb.pop("out")
        assert ea == eb
        lines = (a / "trajectories.csv").read_text().strip().split("\n")
        assert lines[0] == "traj,lead_time,h0,h1,h2,h3,h4"
        assert len(lines) == 5
        data = parse_count_csv((a / "dataset.csv").read_text(), 10)
        assert data.schedule == (2.0, 4.0)
        assert data.n_obs == 4

    def test_dormant_ensemble_is_all_zero(self, cli_env, tmp_path):
        out = tmp_path / "eta0"
        r = run_cli(cli_env, ["simulate", *SIM_ARGS, "--eta", "0",
                              "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        data = parse_count_csv((out / "dataset.csv").read_text(), 10)
        assert all(k == 0 for col in data.counts for k in col)

    def test_inconsistent_design_is_input_error(self, cli_env, tmp_path):
        # hour 8 lies past SIM_ARGS' --horizon 4; the later flag wins
        r = run_cli(cli_env, ["simulate", *SIM_ARGS, "--schedule", "2,8"],
                    tmp_path)
        assert r.returncode == 2
        assert "input error" in r.stderr


COMPARE_ARGS = ["--schedule", "2,6,12,24", "--group-size", "2",
                "--mass", "50", "--horizon", "24", "--seed", "5",
                "--hours", "4,16"]


@pytest.fixture(scope="module")
def compare_runs(cli_env, tmp_path_factory):
    root = tmp_path_factory.mktemp("compare")
    dirs = []
    for name in ("a", "b"):
        out = root / name
        r = run_cli(cli_env, ["compare", *COMPARE_ARGS,
                              "--out", str(out)], root)
        assert r.returncode == 0, r.stderr
        dirs.append(out)
    return dirs


class TestCompare:
    def test_file_inventory(self, compare_runs):
        out = compare_runs[0]
        for name in ("config_echo.json", "trajectories_ssb.csv",
                     "trajectories_re.csv", "dataset.csv",
                     "mean_curves.csv", "cross_section_4.csv",
                     "cross_section_16.csv", "spectrum_ssb.csv",
                     "spectrum_re.csv", "summary.json"):
            assert (out / name).exists(), name

    def test_summary_contents(self, compare_runs):
        summary = json.loads((compare_runs[0] / "summary.json").read_text())
        assert summary["n_obs"] == 8
        assert summary["n_params"] == {"lrm": 2, "lrm_re": 5, "ssb": 4}
        assert math.isfinite(summary["log_lr"])
        assert summary["hours"] == [4.0, 16.0]

    def test_byte_identical_reruns(self, compare_runs):
        a, b = compare_runs
        for name in ("summary.json", "mean_curves.csv", "dataset.csv",
                     "spectrum_ssb.csv", "trajectories_re.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


REP_ARGS = ["--schedule", "2,6,12,24", "--group-size", "2", "--mass", "50",
            "--horizon", "24", "--seed", "9"]


class TestReplicateStudy:
    def test_two_replicates(self, cli_env, tmp_path):
        out = tmp_path / "study"
        r = run_cli(cli_env, ["replicate-study", *REP_ARGS, "--n-reps", "2",
                              "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        rep_lines = (out / "replicates.csv").read_text().strip().split("\n")
        assert rep_lines[0].startswith("replicate,lambda0,gamma0,alpha,beta")
        assert len(rep_lines) == 3

        cols = rep_lines[0].split(",")
        alpha_idx = cols.index("alpha")
        alphas = [float(ln.split(",")[alpha_idx]) for ln in rep_lines[1:]]

        summary = {}
        for ln in (out / "summary.csv").read_text().strip().split("\n")[1:]:
            name, mean, sd = ln.split(",")
            summary[name] = (mean, sd)
        assert float(summary["alpha"][0]) == pytest.approx(
            sum(alphas) / 2.0, rel=1e-15)
        assert summary["n_used"] == ("2", "")

    def test_single_replicate_has_no_sd(self, cli_env, tmp_path):
        out = tmp_path / "study1"
        r = run_cli(cli_env, ["replicate-study", *REP_ARGS, "--n-reps", "1",
                              "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        for ln in (out / "summary.csv").read_text().strip().split("\n")[1:]:
            name, mean, sd = ln.split(",")
            if name == "alpha":
                assert sd == "nan"
                assert math.isfinite(float(mean))

    def test_failed_replicate_is_skipped_not_fatal(self, cli_env, tmp_path):
        # seed 7 on this sparse design makes the second replicate's fit
        # diverge; the study should keep the good one and say so
        out = tmp_path / "study_gap"
        args = REP_ARGS[:-1] + ["7"]
        r = run_cli(cli_env, ["replicate-study", *args, "--n-reps", "2",
                              "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        rep_lines = (out / "replicates.csv").read_text().strip().split("\n")
        assert len(rep_lines) == 2
        summary = {}
        for ln in (out / "summary.csv").read_text().strip().split("\n")[1:]:
            name, mean, sd = ln.split(",")
            summary[name] = (mean, sd)
        assert summary["n_used"] == ("1", "")
        assert summary["n_failed"] == ("1", "")
        assert summary["alpha"][1] == "nan"

    def test_unexpected_error_counts_as_failed(self, tmp_path, monkeypatch):
        # an error outside MassHistError (here from linear algebra) in one
        # replicate must not lose the others or the output files
        real = masshist.cli._one_replicate
        failing_seed = []

        def flaky(params, config):
            if not failing_seed or failing_seed[0] == config.seed:
                failing_seed.append(config.seed)
                raise np.linalg.LinAlgError("singular matrix")
            return real(params, config)

        monkeypatch.setattr(masshist.cli, "_one_replicate", flaky)
        out = tmp_path / "study_linalg"
        code = masshist.cli.main(["replicate-study", *REP_ARGS, "--n-reps",
                                  "2", "--out", str(out)])
        assert code == 0
        rep_lines = (out / "replicates.csv").read_text().strip().split("\n")
        assert len(rep_lines) == 2 and rep_lines[1].startswith("1,")
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert "n_failed,1," in summary
        assert "n_used,1," in summary


class TestConfigFile:
    def test_flags_beat_config(self, cli_env, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11, "eta": 0.5, "mass": 10,
                                   "schedule": "2,4", "group_size": 2,
                                   "horizon": 4}))
        via_config = tmp_path / "via_config"
        r = run_cli(cli_env, ["simulate", "--config", str(cfg), "--eta",
                              "1.0", "--out", str(via_config)], tmp_path)
        assert r.returncode == 0, r.stderr
        echo = json.loads((via_config / "config_echo.json").read_text())
        assert echo["seed"] == 11
        assert echo["eta"] == 1.0
        assert echo["mass"] == 10

        via_flags = tmp_path / "via_flags"
        r = run_cli(cli_env, ["simulate", "--schedule", "2,4",
                              "--group-size", "2", "--mass", "10",
                              "--horizon", "4", "--seed", "11",
                              "--eta", "1.0", "--out", str(via_flags)],
                    tmp_path)
        assert r.returncode == 0, r.stderr
        assert ((via_config / "dataset.csv").read_bytes()
                == (via_flags / "dataset.csv").read_bytes())

    def test_bad_config_json_is_input_error(self, cli_env, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        r = run_cli(cli_env, ["simulate", "--config", str(cfg)], tmp_path)
        assert r.returncode == 2
