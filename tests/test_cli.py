"""CLI subcommands: file outputs, determinism, and the train/eval contract."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

import jmrm.cli
import jmrm.trainer
from jmrm.cli import main
from jmrm.core import load_episode_file, read_json
from jmrm.encoder import load_encoder
from jmrm.episodes import load_corpus_file


@pytest.fixture
def workspace(tmp_path):
    cfg = {
        "run": {"similarity_kind": "vpb", "max_steps": 0, "seed": 0},
        "encoder": {"kind": "hashed-frozen", "dim": 24},
        "synth": {
            "n_source_domains": 2,
            "n_dev_domains": 1,
            "n_target_domains": 1,
            "samples_per_domain": 40,
            "seed": 3,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def trainable_config(ws, **run):
    """A config with a small trainable encoder and the given run fields."""
    cfg = json.loads((ws / "cfg.json").read_text())
    cfg["run"].update(run)
    cfg["encoder"] = {"kind": "trainable", "dim": 16, "init_scale": 0.3}
    path = ws / "cfg_trainable.json"
    path.write_text(json.dumps(cfg))
    return path


def build(ws, cfg, shots=5):
    data = ws / "data"
    assert run_cli("gen-synth", "--config", cfg, "--out", data) == 0
    for split, seed in (("source", 1), ("dev", 2), ("target", 3)):
        assert run_cli(
            "build-episodes", "--corpora", data / f"{split}.json",
            "--shots", shots, "--query-size", 5, "--count", 3,
            "--seed", seed, "--out", ws / f"eps_{split}.json",
        ) == 0
    return data


class TestPipeline:
    def test_gen_synth_outputs(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        for split in ("source", "dev", "target"):
            corpora = load_corpus_file(ws / "data" / f"{split}.json")
            assert corpora
        manifest = json.loads((ws / "data" / "manifest.json").read_text())
        assert manifest["command"] == "gen-synth"
        assert manifest["versions"]["jmrm"]

    def test_build_episodes_parse_back(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        eps = load_episode_file(ws / "eps_source.json")
        assert len(eps) == 6  # 2 domains x 3 episodes
        assert all(len(ep.query) == 5 for ep in eps)

    def test_splits_in_one_directory_keep_their_manifests(self, workspace):
        """Each episode file gets a manifest beside it, named after it; the
        corpus directory keeps gen-synth's manifest."""
        ws, cfg = workspace
        data = build(ws, cfg)
        splits = {"train": ("source", 1), "dev": ("dev", 2), "test": ("target", 3)}
        for name, (split, seed) in splits.items():
            assert run_cli("build-episodes", "--corpora", data / f"{split}.json", "--shots", 5,
                           "--query-size", 5, "--count", 2, "--seed", seed,
                           "--out", ws / "episodes" / f"{name}.json") == 0
        assert sorted(p.name for p in (ws / "episodes").iterdir()) == [
            "dev.json", "dev.manifest.json", "test.json", "test.manifest.json",
            "train.json", "train.manifest.json"]
        for name, (split, seed) in splits.items():
            manifest = read_json(ws / "episodes" / f"{name}.manifest.json")
            assert manifest["command"] == "build-episodes" and manifest["seed"] == seed
            assert manifest["config"] == {"corpora": str(data / f"{split}.json"), "shots": 5,
                                          "query_size": 5, "count": 2, "out": f"{name}.json"}
        assert read_json(data / "manifest.json")["command"] == "gen-synth"

    def test_train_then_eval_reproduces_dev_metrics(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        assert run_cli(
            "train", "--config", cfg, "--episodes", ws / "eps_source.json",
            "--dev", ws / "eps_dev.json", "--out", ws / "run",
        ) == 0
        logged = json.loads((ws / "run" / "dev_metrics.json").read_text())
        assert run_cli(
            "eval", "--config", cfg, "--checkpoint", ws / "run" / "checkpoint.json",
            "--episodes", ws / "eps_dev.json", "--out", ws / "evalout",
        ) == 0
        evaluated = json.loads((ws / "evalout" / "metrics.json").read_text())
        assert evaluated["metrics"] == logged["metrics"]

    def test_dev_metrics_come_from_the_training_log(self, workspace, monkeypatch):
        ws, cfg = workspace
        build(ws, cfg)
        cfg = trainable_config(ws, learning_rate=0.01, max_steps=10, eval_every=5, batch_size=3)
        returned, late = [], []
        train, evaluate = jmrm.cli.train, jmrm.trainer.evaluate

        def recording_train(*args):
            result = train(*args)
            returned.append(True)
            return result

        def recording_evaluate(*args):
            late.extend(returned)
            return evaluate(*args)

        monkeypatch.setattr(jmrm.cli, "train", recording_train)
        monkeypatch.setattr(jmrm.trainer, "evaluate", recording_evaluate)
        monkeypatch.setattr(jmrm.cli, "evaluate", recording_evaluate)
        assert run_cli("train", "--config", cfg, "--episodes", ws / "eps_source.json",
                       "--dev", ws / "eps_dev.json", "--out", ws / "run") == 0
        assert returned and not late
        dev = json.loads((ws / "run" / "dev_metrics.json").read_text())
        lines = (ws / "run" / "training_log.jsonl").read_text().splitlines()
        log = [json.loads(line) for line in lines]
        assert dev["best_step"] > 0
        (entry,) = [e for e in log if e["event"] == "eval" and e["step"] == dev["best_step"]]
        assert dev["metrics"] == entry["dev"]

    def test_divergence_keeps_the_best_checkpoint(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        cfg = trainable_config(ws, similarity_kind="l2", learning_rate=1e6, max_steps=20,
                               eval_every=5)
        # a real process, so numpy warnings would reach the stderr checked here
        proc = subprocess.run(
            [sys.executable, "-m", "jmrm.cli", "train", "--config", str(cfg),
             "--episodes", str(ws / "eps_source.json"), "--dev", str(ws / "eps_dev.json"),
             "--out", str(ws / "run")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()  # the one-line JSON error and nothing else
        payload = json.loads(line)
        assert payload["error"] == "TrainingDiverged"
        assert re.match(r"training diverged in step \d+: ", payload["message"])
        lines = (ws / "run" / "training_log.jsonl").read_text().splitlines()
        log = [json.loads(line) for line in lines]
        assert log[0]["event"] == "eval"
        load_encoder(ws / "run" / "checkpoint.json")  # rejects non-finite entries
        assert not (ws / "run" / "dev_metrics.json").exists()
        # the config and seed that reproduce the divergence
        manifest = json.loads((ws / "run" / "manifest.json").read_text())
        assert manifest["command"] == "train" and manifest["seed"] == 0
        run = json.loads(cfg.read_text())["run"]
        assert {k: manifest["config"]["run"][k] for k in run} == run
        assert manifest["config"]["encoder"]["kind"] == "trainable"

    def test_training_log_is_jsonl(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        run_cli("train", "--config", cfg, "--episodes", ws / "eps_source.json",
                "--dev", ws / "eps_dev.json", "--out", ws / "run")
        lines = (ws / "run" / "training_log.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert entries and all("step" in e for e in entries)


class TestAblate:
    def test_grid_shape_and_determinism(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        for out in ("ab1", "ab2"):
            assert run_cli(
                "ablate", "--config", cfg,
                "--episodes", ws / "eps_source.json", "--dev", ws / "eps_dev.json",
                "--test", ws / "eps_target.json", "--seeds", 2, "--out", ws / out,
            ) == 0
        rows = (ws / "ab1" / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 5 * 3  # header + grid
        records = json.loads((ws / "ab1" / "ablate_results.json").read_text())["records"]
        assert len(records) == 5 * 3 * 2
        for name in ("ablate_results.json", "report.csv", "report.txt", "manifest.json"):
            assert (ws / "ab1" / name).read_bytes() == (ws / "ab2" / name).read_bytes()

    def test_flag_overrides(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        run_cli("train", "--config", cfg, "--episodes", ws / "eps_source.json",
                "--dev", ws / "eps_dev.json", "--out", ws / "run")
        assert run_cli(
            "eval", "--config", cfg, "--checkpoint", ws / "run" / "checkpoint.json",
            "--episodes", ws / "eps_target.json", "--out", ws / "ev",
            "--similarity", "l2", "--no-i2s-eval", "--no-msd-eval", "--seed", 9,
        ) == 0
        rec = json.loads((ws / "ev" / "metrics.json").read_text())
        assert rec["similarity"] == "l2" and rec["seed"] == 9


class TestOracleCheckAndReport:
    def test_oracle_check_passes(self, workspace, capsys):
        ws, cfg = workspace
        assert run_cli("oracle-check", "--trials", 15, "--seed", 11, "--out", ws / "oc") == 0
        report = json.loads((ws / "oc" / "oracle_report.json").read_text())
        assert report["pass"] is True
        assert set(report["suites"]) == {
            "partition", "decode", "normalization",
            "emission_gradients", "encoder_gradients", "shift_invariance",
        }

    def test_dump_masks(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        assert run_cli(
            "oracle-check", "--trials", 5, "--seed", 1,
            "--dump-masks", ws / "eps_target.json", "--out", ws / "oc2",
        ) == 0
        report = json.loads((ws / "oc2" / "oracle_report.json").read_text())
        eps = load_episode_file(ws / "eps_target.json")
        assert len(report["masks"]) == len(eps)
        first = report["masks"][0]
        assert len(first["relation_mask"]) == len(first["intents"])
        assert len(first["transition_mask"]) == len(first["slot_labels"])
        for name in ("relation_mask", "transition_mask", "start_mask"):
            assert set(np.ravel(first[name]).tolist()) <= {0, 1}

    def test_walkthrough_writes_only_standard_json(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        cfg = trainable_config(ws, learning_rate=0.01, max_steps=2, eval_every=1)
        eps = {split: ws / f"eps_{split}.json" for split in ("source", "dev", "target")}
        commands = [
            ("train", "--config", cfg, "--episodes", eps["source"], "--dev", eps["dev"],
             "--out", ws / "run"),
            ("eval", "--config", cfg, "--checkpoint", ws / "run" / "checkpoint.json",
             "--episodes", eps["target"], "--out", ws / "evalout"),
            ("ablate", "--config", ws / "cfg.json", "--episodes", eps["source"],
             "--dev", eps["dev"], "--test", eps["target"], "--seeds", 1, "--out", ws / "ab"),
            ("report", "--inputs", ws / "ab" / "ablate_results.json",
             ws / "evalout" / "metrics.json", "--out", ws / "rep"),
            ("oracle-check", "--trials", 3, "--dump-masks", eps["target"], "--out", ws / "oc"),
        ]
        for argv in commands:
            assert run_cli(*argv) == 0, argv[0]
        written = sorted(ws.rglob("*.json"))
        assert ws / "oc" / "oracle_report.json" in written
        for path in written:
            read_json(path)  # rejects NaN and +-Infinity

    def test_report_aggregates_records(self, workspace):
        ws, cfg = workspace
        build(ws, cfg)
        run_cli("ablate", "--config", cfg,
                "--episodes", ws / "eps_source.json", "--dev", ws / "eps_dev.json",
                "--test", ws / "eps_target.json", "--seeds", 1, "--out", ws / "ab")
        assert run_cli("report", "--inputs", ws / "ab" / "ablate_results.json",
                       "--out", ws / "rep") == 0
        text = (ws / "rep" / "report.txt").read_text()
        for name in ("JM", "JMI2S", "JMMSD", "JMRM", "JM+RM"):
            assert name in text


class TestErrors:
    @pytest.mark.parametrize("value", ["7", "-0.5", "1.5", "1" + "0" * 400],
                             ids=["7", "negative", "above-1", "beyond-float-range"])
    def test_report_rejects_a_metric_outside_0_1(self, tmp_path, capsys, value):
        """A rate of 7 would print as 700.00 and exit 0, and an integer
        beyond float range would end in an untyped OverflowError."""
        good = '{"similarity": "cos", "metrics": {"intent_acc": 0.5, "slot_f1": 1, "joint_acc": null}}'
        bad = good.replace('"joint_acc": null', f'"joint_acc": {value}')
        path = tmp_path / "bad.json"
        path.write_text(f'{{"records": [{good}, {bad}]}}')
        assert run_cli("report", "--inputs", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "MalformedInput"
        assert payload["message"].startswith(f"{path}: record 1 needs")
        assert "each null or a number in [0, 1]" in payload["message"]

    def test_report_reads_rates_at_the_bounds(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text('{"similarity": "cos", "metrics": {"intent_acc": 0, "slot_f1": 1.0, "joint_acc": null}}')
        assert run_cli("report", "--inputs", path) == 0
        assert "0.00" in capsys.readouterr().out

    def test_missing_file_yields_error_json(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                     "--episodes", str(tmp_path / "nope2.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "error" in payload and "message" in payload

    def test_malformed_checkpoint_yields_malformed_input(self, workspace, capsys):
        ws, cfg = workspace
        build(ws, cfg)
        bad = ws / "bad_checkpoint.json"
        bad.write_text(json.dumps({
            "magic": "JMRM-ENC-v1",
            "config": {"kind": "trainable", "dim": 2, "context_window": 0,
                       "init_scale": 0.1, "seed": 0},
            "vocab": ["<unk>", "a"],
            "token_table": [[0.0, 0.0]],
            "projection": [[1.0, 0.0], [0.0, 1.0]],
            "bias": [0.0, 0.0],
        }))
        code = run_cli("eval", "--checkpoint", bad, "--episodes", ws / "eps_target.json",
                       "--out", ws / "o")
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "MalformedInput"
        assert "token_table" in payload["message"]
        assert not (ws / "o").exists()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "jmrm.cli", "oracle-check", "--trials", "2", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    @pytest.mark.parametrize("command, content", [
        ("eval", b"{not json"),
        ("eval", b"\xff{}"),
        ("train", b"{not json"),
        ("train", b"[1, 2]"),
        ("train", b'{"run": 5}'),
        ("train", b'{"run": {"batch_size": "4"}}'),
        ("train", b'{"run": {"similarity_kind": "foo"}}'),
        ("train", b'{"encoder": {"dim": "32"}}'),
        ("gen-synth", b'{"synth": {"n_source_domains": "3"}}'),
        ("report", b"{not json"),
        ("report", b'{"records": [{}]}'),
        ("report", b'{"records": 3}'),
        ("report", b"[1, 2]"),
        ("train", b'{"run": {"learning_rate": NaN}}'),
        ("train", b'{"run": {"lam": 1e400}}'),
        ("train", b'{"run": {"lam": 1' + b"0" * 400 + b'}}'),
        ("eval", b'{"magic": "JMRM-ENC-v1", "config": {"kind": "hashed-frozen", "dim": 2, '
                 b'"context_window": 0, "init_scale": NaN, "seed": 0}}'),
        ("report", b'{"records": [{"similarity": "cos", "metrics": '
                   b'{"intent_acc": 0.5, "slot_f1": -Infinity, "joint_acc": null}}]}'),
        ("report", b'{"records": [{"similarity": "cos", "metrics": '
                   b'{"intent_acc": 1e400, "slot_f1": 0.5, "joint_acc": null}}]}'),
    ])
    def test_bad_input_file_yields_malformed_input(self, tmp_path, capsys, command, content):
        """The checkpoint (eval), config (train, gen-synth) or report input is bad;
        it is read before any episode file, so those need not exist."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        flag = {"eval": "--checkpoint", "report": "--inputs"}.get(command, "--config")
        argv = {
            "eval": ["--episodes", tmp_path / "eps.json", "--out", tmp_path / "o"],
            "train": ["--episodes", tmp_path / "eps.json", "--dev", tmp_path / "eps.json",
                      "--out", tmp_path / "o"],
            "gen-synth": ["--out", tmp_path / "o"],
            "report": [],
        }[command]
        assert run_cli(command, flag, bad, *argv) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "MalformedInput"
        assert not (tmp_path / "o").exists()

    def test_lam_and_lambda_together_yield_malformed_input(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"lam": 2.0, "lambda": 1.0}}))
        eps, out = tmp_path / "eps.json", tmp_path / "o"
        assert run_cli("train", "--config", cfg, "--episodes", eps, "--dev", eps, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert json.loads(line) == {"error": "MalformedInput",
                                    "message": "run config gives both 'lam' and 'lambda'; keep one"}
        assert not out.exists()

    @pytest.mark.parametrize("command, text, match", [
        ("train", '{"episodes": [{"domain": "x"}]}', r"\$\.episodes\[0\]: missing key 'intents'"),
        ("train", '{"episodes": 5', "not valid JSON"),
        ("build-episodes", '{"corpora": [{}]}', r"\$\.corpora\[0\]: missing key 'domain'"),
    ])
    def test_labeled_file_errors_name_the_file(self, tmp_path, capsys, command, text, match):
        bad = tmp_path / "bad_labeled.json"
        bad.write_text(text)
        argv = {
            "train": ["--episodes", bad, "--dev", bad, "--out", tmp_path / "o"],
            "build-episodes": ["--corpora", bad, "--shots", 1, "--out", tmp_path / "o.json"],
        }[command]
        assert run_cli(command, *argv) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "MalformedInput"
        assert re.search(f"^{re.escape(str(bad))}: {match}", payload["message"])

    @pytest.mark.parametrize("command, value, name", [
        ("oracle-check", 0, "trials"), ("oracle-check", -3, "trials"),
        ("ablate", 0, "seeds"), ("build-episodes", 0, "count"), ("build-episodes", -1, "count"),
    ])
    def test_count_below_one_yields_error_json(self, workspace, capsys, command, value, name):
        """A run that would check, grid or build nothing fails on one JSON line
        and writes no output."""
        ws, cfg = workspace
        out = ws / "o"
        if command == "oracle-check":
            argv = ["--trials", value, "--out", out]
        elif command == "ablate":
            build(ws, cfg)
            argv = ["--config", cfg, "--episodes", ws / "eps_source.json",
                    "--dev", ws / "eps_dev.json", "--test", ws / "eps_target.json",
                    "--seeds", value, "--out", out]
        else:
            data = build(ws, cfg)
            argv = ["--corpora", data / "source.json", "--shots", 5,
                    "--count", value, "--out", out / "eps.json"]
        capsys.readouterr()
        assert run_cli(command, *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert json.loads(line) == {"error": "ValueError",
                                    "message": f"--{name} must be >= 1, got {value}"}
        assert not out.exists()

    @pytest.mark.parametrize("command, seed", [
        ("gen-synth", -1), ("build-episodes", -1), ("oracle-check", -1), ("train", -1),
        ("eval", -1), ("ablate", -1), ("ablate", -3),
    ])
    def test_negative_seed_yields_error_json(self, workspace, capsys, command, seed):
        """A negative --seed fails on one JSON line naming the flag and
        writes no output, whichever encoder the run would use."""
        ws, cfg = workspace
        data, out = build(ws, cfg), ws / "o"
        eps = {split: ws / f"eps_{split}.json" for split in ("source", "dev", "target")}
        argv = {
            "gen-synth": ["--config", cfg, "--out", out],
            "build-episodes": ["--corpora", data / "source.json", "--shots", 5,
                               "--out", out / "eps.json"],
            "oracle-check": ["--trials", 1, "--out", out],
            "train": ["--config", trainable_config(ws), "--episodes", eps["source"],
                      "--dev", eps["dev"], "--out", out],
            "eval": ["--checkpoint", ws / "none.json", "--episodes", eps["target"], "--out", out],
            "ablate": ["--config", cfg, "--episodes", eps["source"], "--dev", eps["dev"],
                       "--test", eps["target"], "--seeds", 1, "--out", out],
        }[command]
        capsys.readouterr()
        assert run_cli(command, *argv, "--seed", seed) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert json.loads(line) == {"error": "ValueError",
                                    "message": f"--seed must be >= 0, got {seed}"}
        assert not out.exists()

    @pytest.mark.parametrize("section, command, message", [
        ("run", "ablate", "bad run config: seed and max_steps must be >= 0"),
        ("encoder", "ablate", "bad encoder config: seed and context_window must be >= 0"),
        ("synth", "gen-synth", "bad synth config: all SynthSpec counts must be >= 1, and seed >= 0"),
    ])
    def test_negative_config_seed_yields_malformed_input(self, workspace, capsys, section,
                                                         command, message):
        ws, cfg = workspace
        build(ws, cfg)
        bad = json.loads(cfg.read_text())
        bad[section]["seed"] = -1
        bad_cfg, out = ws / "bad_cfg.json", ws / "o"
        bad_cfg.write_text(json.dumps(bad))
        argv = ["--config", bad_cfg, "--out", out]
        if command == "ablate":
            argv += ["--episodes", ws / "eps_source.json", "--dev", ws / "eps_dev.json",
                     "--test", ws / "eps_target.json", "--seeds", 1]
        capsys.readouterr()
        assert run_cli(command, *argv) == 1
        [line] = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "MalformedInput", "message": message}
        assert not out.exists()
