"""Tests for configuration validation, the command-line entry, and artifacts."""

import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from unfold_ssc import autoenc, cli, cluster, container, train
from unfold_ssc.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateConfig:
    def test_missing_required_fields_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            cli.validate_config()
        messages = exc.value.errors
        assert any(m.startswith("values_path") for m in messages)
        assert any(m.startswith("k_clusters") for m in messages)

    def test_paviau_preset_expansion(self):
        cfg = cli.validate_config(preset="paviau", overrides={"values_path": "x.sscm"})
        assert cfg.alpha == 40.0
        assert cfg.beta == 1.3
        assert cfg.gamma == 0.01
        assert cfg.rho0 == 0.5
        assert cfg.admm_layers == 3
        assert cfg.patch == 13
        assert cfg.k_clusters == 8
        assert cfg.rho_theta_lr_mult == 10.0
        assert cfg.dataset == "paviau"

    def test_salinas_preset_expansion(self):
        cfg = cli.validate_config(preset="salinas", overrides={"values_path": "x"})
        assert (cfg.patch, cfg.k_clusters, cfg.rho0) == (7, 6, 0.1)
        assert (cfg.admm_layers, cfg.beta, cfg.gamma) == (2, 0.1, 0.0001)
        assert cfg.rho_theta_lr_mult == 1.0

    def test_indian_pines_preset_expansion(self):
        cfg = cli.validate_config(preset="indian_pines", overrides={"values_path": "x"})
        assert (cfg.rho0, cfg.beta, cfg.gamma) == (0.9, 0.3, 0.0003)
        assert cfg.rho_theta_lr_mult == 10.0

    def test_precedence_overrides_beat_file_beat_preset(self, tmp_path):
        path = write_config(tmp_path, {
            "dataset": "paviau", "values_path": "x.sscm",
            "patch": 5, "seed": 4,
        })
        cfg = cli.validate_config(path, overrides={"seed": 9})
        assert cfg.patch == 5          # file wins over the preset's 13
        assert cfg.seed == 9           # flag wins over the file's 4
        assert cfg.k_clusters == 8     # untouched preset value survives

    def test_unknown_key_is_error(self, tmp_path):
        path = write_config(tmp_path, {
            "values_path": "x", "k_clusters": 3, "patch_size": 5,
        })
        with pytest.raises(ConfigError, match="patch_size"):
            cli.validate_config(path)

    def test_multiple_problems_all_reported(self, tmp_path):
        path = write_config(tmp_path, {
            "values_path": "x", "k_clusters": 3,
            "patch": 4, "gamma": -1, "bogus": True,
        })
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        text = "\n".join(exc.value.errors)
        assert "patch" in text and "gamma" in text and "bogus" in text
        assert len(exc.value.errors) == 3

    def test_negative_gamma_names_the_field(self, tmp_path):
        path = write_config(tmp_path, {"values_path": "x", "k_clusters": 2, "gamma": -0.5})
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith("gamma:")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(preset="botswana", overrides={"values_path": "x",
                                                              "k_clusters": 2})
        assert exc.value.errors == ["dataset: must be one of ['indian_pines', 'paviau', "
                                    "'salinas'] (got 'botswana')"]

    @pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps"])
    def test_retired_adam_key_is_unknown(self, key):
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(overrides={"values_path": "x", "k_clusters": 2, key: 0.5})
        assert exc.value.errors == [f"{key}: unknown configuration key"]

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            cli.validate_config(str(path))

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            cli.validate_config(str(path))

    def test_hidden_dims_normalized_to_tuple(self, tmp_path):
        path = write_config(tmp_path, {
            "values_path": "x", "k_clusters": 2, "hidden_dims": [32, 16],
        })
        cfg = cli.validate_config(path)
        assert cfg.hidden_dims == (32, 16)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.validate_config(overrides={"values_path": "x", "k_clusters": 2,
                                           "seed": True})

    def test_every_key_is_checked_and_documented(self):
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert fields == set(cli._CHECKS)
        assert len(fields) == len(cli._CHECKS) == 25
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        text = Path(readme).read_text()
        table = text[text.index("### Configuration"):text.index("### Artifacts")]
        documented = set()
        for row in table.splitlines():
            if row.startswith("| `"):
                documented.update(re.findall(r"`(\w+)`", row.split("|")[1]))
        assert sorted(fields - documented) == []
        assert sorted(documented - fields) == []


@pytest.mark.parametrize("value", [[1], {}, 5, "nope"], ids=["list", "dict", "int", "name"])
def test_bad_dataset_is_reported_once(tmp_path, capsys, value):
    """A dataset value that names no preset, of any JSON type, is one
    config error, not a TypeError from the preset lookup."""
    cfg = write_config(tmp_path, {"values_path": "x.sscm", "k_clusters": 2,
                                  "out_dir": str(tmp_path / "never"), "dataset": value})
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "dataset:" in line] == [
        f"config error: dataset: must be one of ['indian_pines', 'paviau', 'salinas'] "
        f"(got {value!r})"]
    assert "Traceback" not in err
    assert not (tmp_path / "never").exists()


FLOAT_KEYS = [f.name for f in dataclasses.fields(cli.RunConfig) if isinstance(f.default, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_infinite_number_exits_two_and_names_the_key(tmp_path, capsys, key):
    """JSON's ``Infinity`` parses to a float; no numeric key accepts it."""
    out = tmp_path / "never"
    cfg = write_config(tmp_path, {"values_path": "x.sscm", "k_clusters": 2,
                                  "out_dir": str(out), key: float("inf")})
    assert "Infinity" in Path(cfg).read_text()
    assert cli.main(["run", "--config", cfg]) == 2
    assert f"config error: {key}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_integer_beyond_float_range_exits_two_and_names_the_key(tmp_path, capsys, key):
    """JSON integers have no size limit; one that no float can hold is
    rejected by validation, not by an OverflowError in the arithmetic."""
    out = tmp_path / "never"
    huge = 10**400
    cfg = write_config(tmp_path, {"values_path": "x.sscm", "k_clusters": 2,
                                  "out_dir": str(out), key: huge})
    assert f'"{key}": 1{"0" * 400}' in Path(cfg).read_text()
    assert cli.main(["run", "--config", cfg]) == 2
    assert f"config error: {key}: must be" in capsys.readouterr().err
    assert not out.exists()


INT_KEYS = [f.name for f in dataclasses.fields(cli.RunConfig)
            if f.type in ("int", "int | None")] + ["hidden_dims"]
HUGE = 10**400


@pytest.mark.parametrize("key", INT_KEYS)
def test_integer_beyond_int64_exits_two_and_names_the_key(tmp_path, capsys, key):
    """An integer key past int64 (a ``hidden_dims`` entry included) is a
    config error, not an overflow in numpy or an epoch loop that never ends.
    The value is odd, so ``patch`` cannot fail on parity alone."""
    out = tmp_path / "never"
    value = [16, HUGE + 1] if key == "hidden_dims" else HUGE + 1
    cfg = write_config(tmp_path, {"values_path": "x.sscm", "k_clusters": 2,
                                  "out_dir": str(out), key: value})
    assert cli.main(["run", "--config", cfg]) == 2
    assert f"config error: {key}: must be" in capsys.readouterr().err
    assert not out.exists()


def test_integer_keys_reach_int64_and_float_keys_keep_any_finite_integer():
    base = {"values_path": "x", "k_clusters": 2}
    assert cli.validate_config(overrides={**base, "joint_epochs": 2**63 - 1}).joint_epochs
    with pytest.raises(ConfigError, match="joint_epochs"):
        cli.validate_config(overrides={**base, "joint_epochs": 2**63})
    assert cli.validate_config(overrides={**base, "alpha": 10**30}).alpha == 10**30


@pytest.mark.parametrize("key, value", [("patch", HUGE), ("rho0", -HUGE),
                                        ("hidden_dims", [HUGE]), ("mode", "x" * 500)],
                         ids=["patch", "rho0", "hidden_dims", "mode"])
def test_rejected_value_is_clipped_in_the_message(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {"values_path": "x.sscm", "k_clusters": 2, key: value})
    assert cli.main(["run", "--config", cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {key}: must be")
    assert len(lines[0]) < 120


@pytest.mark.parametrize("command", ["run", "gen"])
def test_impossible_allocation_exits_two_and_writes_nothing(tmp_path, capsys, command):
    """A size inside int64 can still ask for an array no machine holds: a
    2**40 latent width (512 TiB of encoder weights) or a 2**40-row cube
    (160 TiB of labels). numpy's MemoryError is a config error carrying its
    message, raised before ``out_dir`` is touched."""
    big = 2**40
    out = tmp_path / "out"
    if command == "run":
        data = tmp_path / "data"
        assert cli.main(["gen", "cube", "--height", "8", "--width", "8", "--bands", "4",
                         "--out", str(data)]) == 0
        out.mkdir()
        (out / "labels.csv").write_text("stale\n")
        cfg = write_config(tmp_path, {"values_path": str(data / "values.sscm"),
                                      "labels_path": str(data / "labels.sscm"),
                                      "k_clusters": 4, "patch": 3, "latent_dim": big,
                                      "out_dir": str(out)})
        argv = ["run", "--config", cfg]
    else:
        argv = ["gen", "cube", "--height", str(big), "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: Unable to allocate")
    if command == "run":
        assert os.listdir(out) == ["labels.csv"]
        assert (out / "labels.csv").read_text() == "stale\n"
    else:
        assert not out.exists()


class TestGenCommands:
    def test_gen_subspaces_writes_values_and_labels(self, tmp_path):
        out = str(tmp_path / "data")
        rc = cli.main(["gen", "subspaces", "--clusters", "2", "--per-cluster", "5",
                       "--ambient-dim", "8", "--sub-dim", "2", "--out", out])
        assert rc == 0
        X = container.load_any(os.path.join(out, "values.sscm"))
        assert X.shape == (8, 10)
        labels = np.loadtxt(os.path.join(out, "labels.csv"))
        assert sorted(set(labels)) == [1.0, 2.0]

    def test_gen_cube_writes_cube_and_map(self, tmp_path):
        out = str(tmp_path / "cube")
        rc = cli.main(["gen", "cube", "--clusters", "2", "--height", "6",
                       "--width", "6", "--bands", "3", "--out", out])
        assert rc == 0
        values = container.load_any(os.path.join(out, "values.sscm"))
        labels = container.load_any(os.path.join(out, "labels.sscm"))
        assert values.shape == (6, 6, 3)
        assert labels.shape == (6, 6)
        assert set(np.unique(labels)) == {1.0, 2.0}

    @pytest.mark.parametrize("argv, flag", [
        (["subspaces", "--clusters", "0"], "--clusters"),
        (["cube", "--clusters", "0"], "--clusters"),
        (["subspaces", "--per-cluster", "0"], "--per-cluster"),
        (["subspaces", "--sub-dim", "4", "--ambient-dim", "3"], "--sub-dim"),
        (["subspaces", "--sub-dim", "0"], "--sub-dim"),
        (["cube", "--bands", "0"], "--bands"),
        (["cube", "--sigma", "-0.1"], "--sigma"),
        (["subspaces", "--sigma", "nan"], "--sigma"),
        (["subspaces", "--seed", "-1"], "--seed"),
        (["cube", "--seed", "-1"], "--seed"),
        (["cube", "--height", str(HUGE)], "--height"),
        (["cube", "--width", str(HUGE)], "--width"),
        (["cube", "--bands", str(HUGE)], "--bands"),
        (["cube", "--clusters", str(HUGE)], "--clusters"),
        (["cube", "--seed", str(HUGE)], "--seed"),
        (["subspaces", "--per-cluster", str(HUGE)], "--per-cluster"),
        (["subspaces", "--ambient-dim", str(HUGE)], "--ambient-dim"),
        (["subspaces", "--sub-dim", str(HUGE)], "--sub-dim"),
        (["subspaces", "--seed", str(2**63)], "--seed"),
    ])
    def test_gen_bad_flag_exits_two_and_creates_nothing(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "never"
        assert cli.main(["gen", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}: must be" in err
        assert max(len(line) for line in err.splitlines()) < 120
        assert not out.exists()


@pytest.fixture()
def subspace_data(tmp_path):
    out = str(tmp_path / "data")
    cli.main(["gen", "subspaces", "--clusters", "3", "--ambient-dim", "20",
              "--sub-dim", "2", "--per-cluster", "20", "--sigma", "0.01",
              "--out", out])
    return out


@pytest.fixture()
def small_c(tmp_path):
    """A 20-sample two-subspace set and a 20x20 coefficient matrix from it."""
    out = str(tmp_path / "small")
    cli.main(["gen", "subspaces", "--clusters", "2", "--ambient-dim", "8",
              "--sub-dim", "2", "--per-cluster", "10", "--out", out])
    X = container.load_any(os.path.join(out, "values.sscm"))
    c_path = os.path.join(out, "c.sscm")
    container.write_array(c_path, np.abs(X.T @ X))
    return c_path, os.path.join(out, "labels.csv")


class TestRunCommand:
    def test_classic_mode_end_to_end(self, tmp_path, subspace_data, capsys):
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(subspace_data, "values.sscm"),
            "labels_path": os.path.join(subspace_data, "labels.csv"),
            "k_clusters": 3, "mode": "classic", "out_dir": out,
        })
        rc = cli.main(["run", "--config", cfg])
        assert rc == 0
        for name in ("labels.csv", "truth.csv", "metrics.json",
                     "similarity.sscm", "run_manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        assert not os.path.exists(os.path.join(out, "loss_history.csv"))
        scores = json.loads(Path(os.path.join(out, "metrics.json")).read_text())
        assert scores["acc"] >= 0.9
        assert "acc=" in capsys.readouterr().out
        assert not [f for f in os.listdir(out) if f.startswith(".staging-")]

    def test_kmeans_baseline_mode(self, tmp_path, subspace_data):
        out = str(tmp_path / "km")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(subspace_data, "values.sscm"),
            "labels_path": os.path.join(subspace_data, "labels.csv"),
            "k_clusters": 3, "mode": "kmeans-baseline", "out_dir": out,
        })
        assert cli.main(["run", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out, "metrics.json"))
        assert not os.path.exists(os.path.join(out, "similarity.sscm"))

    def test_unfold_mode_on_small_cube(self, tmp_path):
        data_dir = str(tmp_path / "cube")
        cli.main(["gen", "cube", "--clusters", "2", "--height", "8", "--width", "8",
                  "--bands", "4", "--sigma", "0.01", "--out", data_dir])
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(data_dir, "values.sscm"),
            "labels_path": os.path.join(data_dir, "labels.sscm"),
            "k_clusters": 2, "patch": 3, "out_dir": out,
            "pretrain_epochs": 5, "joint_epochs": 4,
            "knn_init": 5, "knn_struct": 3,
            "latent_dim": 6, "hidden_dims": [16, 8], "admm_layers": 2,
        })
        assert cli.main(["run", "--config", cfg]) == 0
        for name in ("labels.csv", "truth.csv", "metrics.json", "loss_history.csv",
                     "pretrain_history.csv", "similarity.sscm", "label_map.ppm",
                     "run_manifest.json", "checkpoint"):
            assert os.path.exists(os.path.join(out, name)), name
        assert set(os.listdir(out)) == set(cli.ARTIFACTS)
        rows = Path(os.path.join(out, "loss_history.csv")).read_text().strip().splitlines()
        assert rows[0] == "epoch,l_all,l_ae,l_sr,l_sp,l_st"
        assert len(rows) == 1 + 4
        with open(os.path.join(out, "label_map.ppm"), "rb") as fh:
            assert fh.readline().strip() == b"P6"
            assert fh.readline().strip() == b"8 8"
        manifest = json.loads(Path(os.path.join(out, "run_manifest.json")).read_text())
        assert manifest["config"]["patch"] == 3

    def test_checkpoint_roundtrip(self, tmp_path):
        data_dir = str(tmp_path / "cube")
        cli.main(["gen", "cube", "--clusters", "2", "--height", "8", "--width", "8",
                  "--bands", "4", "--out", data_dir])
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(data_dir, "values.sscm"),
            "labels_path": os.path.join(data_dir, "labels.sscm"),
            "k_clusters": 2, "patch": 3, "out_dir": out,
            "pretrain_epochs": 3, "joint_epochs": 2,
            "knn_init": 5, "knn_struct": 3,
            "latent_dim": 6, "hidden_dims": [16, 8], "admm_layers": 2,
        })
        assert cli.main(["run", "--config", cfg]) == 0
        ckpt = os.path.join(out, "checkpoint")
        manifest = json.loads(Path(os.path.join(ckpt, "manifest.json")).read_text())
        # 8x8 pixels, 3x3 patches of 4 bands, latent 6, two unfolded layers
        assert manifest["slope"] == autoenc.LEAKY_SLOPE == 0.01
        ae = autoenc.init_weights(36, (16, 8), 6, 0)
        shapes = {f"ae.{name}": arr.shape for name, arr in ae.named_arrays()}
        assert set(manifest["tensors"]) == set(shapes)
        assert sorted(manifest["unfold"]["scalars"]) == [
            "layer0.rho_raw", "layer0.theta_raw", "layer1.rho_raw"]
        for tag, entry in manifest["tensors"].items():
            arr = container.read_array(os.path.join(ckpt, entry["file"]))
            assert tuple(entry["shape"]) == shapes[tag]
            assert arr.size == int(np.prod(shapes[tag]))
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("K", [1, 3])
    def test_checkpoint_lists_exactly_the_learned_arrays(self, tmp_path, monkeypatch, K):
        """The manifest's tensors and unfold scalars are the trained state's
        ``named_arrays``: the ae tensors plus K penalties and K - 1
        thresholds."""
        states = []
        joint = train.train_joint

        def keep_state(state, X, config):
            states.append(state)
            return joint(state, X, config)

        monkeypatch.setattr(train, "train_joint", keep_state)
        data_dir = str(tmp_path / "cube")
        cli.main(["gen", "cube", "--clusters", "2", "--height", "8", "--width", "8",
                  "--bands", "4", "--out", data_dir])
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(data_dir, "values.sscm"),
            "labels_path": os.path.join(data_dir, "labels.sscm"),
            "k_clusters": 2, "patch": 3, "out_dir": out,
            "pretrain_epochs": 2, "joint_epochs": 1,
            "knn_init": 5, "knn_struct": 3,
            "latent_dim": 6, "hidden_dims": [16, 8], "admm_layers": K,
        })
        assert cli.main(["run", "--config", cfg]) == 0
        manifest = json.loads(Path(out, "checkpoint", "manifest.json").read_text())
        scalars = manifest["unfold"]["scalars"]
        assert len(scalars) == 2 * K - 1
        listed = [*manifest["tensors"], *(f"unfold.{name}" for name in scalars)]
        (state,) = states
        names = [name for name, _ in state.named_arrays()]
        assert sorted(listed) == sorted(names)
        for name, arr in state.unfold.named_arrays():
            if name in scalars:
                assert scalars[name] == float(arr)

    def test_invalid_config_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out = str(tmp_path / "never")
        cfg = write_config(tmp_path, {"k_clusters": 1, "out_dir": out})
        rc = cli.main(["run", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "k_clusters" in err and "values_path" in err
        assert not os.path.exists(out)

    def test_rerun_without_labels_drops_stale_artifacts(self, tmp_path, subspace_data):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("not an artifact\n")
        values = os.path.join(subspace_data, "values.sscm")
        with_labels = write_config(tmp_path, {
            "values_path": values,
            "labels_path": os.path.join(subspace_data, "labels.csv"),
            "k_clusters": 3, "mode": "classic", "out_dir": str(out),
        }, name="with.json")
        without_labels = write_config(tmp_path, {
            "values_path": values, "k_clusters": 3, "mode": "classic",
            "out_dir": str(out),
        }, name="without.json")
        assert cli.main(["run", "--config", with_labels]) == 0
        assert (out / "metrics.json").exists() and (out / "truth.csv").exists()
        assert cli.main(["run", "--config", without_labels]) == 0
        assert sorted(os.listdir(out)) == [
            "labels.csv", "notes.txt", "run_manifest.json", "similarity.sscm",
        ]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["labels_path"] is None

    def test_inputs_in_out_dir_are_kept(self, tmp_path, subspace_data, small_c, capsys):
        # cluster owns metrics.json but writes none without --truth: its input stays
        out = tmp_path / "o"
        out.mkdir()
        c_path = out / "metrics.json"
        c_path.write_bytes(Path(small_c[0]).read_bytes())
        before_c = c_path.read_bytes()
        assert cli.main(["cluster", "--from-c", str(c_path), "--k", "2",
                         "--out", str(out)]) == 0
        assert (out / "labels.csv").exists()
        assert c_path.read_bytes() == before_c
        labels = os.path.join(subspace_data, "labels.csv")
        before = Path(labels).read_text()
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(subspace_data, "values.sscm"),
            "labels_path": labels, "k_clusters": 3, "out_dir": subspace_data,
            "pretrain_epochs": 2, "knn_init": 5, "knn_struct": 3,
            "latent_dim": 6, "hidden_dims": [16, 8],
        })
        assert cli.main(["run", "--config", cfg]) == 2
        assert "input labels.csv would be overwritten" in capsys.readouterr().err
        assert Path(labels).read_text() == before

    def test_failed_write_leaves_out_dir_as_it_was(self, tmp_path, subspace_data,
                                                    monkeypatch):
        out = tmp_path / "out"
        base = {
            "values_path": os.path.join(subspace_data, "values.sscm"),
            "labels_path": os.path.join(subspace_data, "labels.csv"),
            "mode": "classic", "out_dir": str(out),
        }
        first = write_config(tmp_path, {**base, "k_clusters": 3}, name="first.json")
        second = write_config(tmp_path, {**base, "k_clusters": 2}, name="second.json")
        assert cli.main(["run", "--config", first]) == 0
        names = sorted(os.listdir(out))
        before = {name: (out / name).read_bytes() for name in names}

        def disk_full(path, array):
            raise OSError("no space left on device")

        # similarity.sscm is staged after labels.csv, truth.csv and metrics.json
        monkeypatch.setattr(container, "write_array", disk_full)
        with pytest.raises(OSError, match="no space"):
            cli.run_pipeline(cli.validate_config(second))
        assert sorted(os.listdir(out)) == names    # no .staging-* entry is left
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_all_zero_latent_code_exits_four(self, tmp_path, capsys):
        values = np.ones((8, 8, 4))
        values[0, 0, :] = 2.0
        labels = np.ones((8, 8))
        labels[4:, :] = 2.0
        container.write_array(tmp_path / "v.sscm", values)
        container.write_array(tmp_path / "l.sscm", labels)
        out = str(tmp_path / "never")
        cfg = write_config(tmp_path, {
            "values_path": str(tmp_path / "v.sscm"),
            "labels_path": str(tmp_path / "l.sscm"),
            "k_clusters": 2, "patch": 3, "out_dir": out,
            "pretrain_epochs": 0, "joint_epochs": 1,
            "knn_init": 5, "knn_struct": 3,
            "latent_dim": 6, "hidden_dims": [16, 8], "admm_layers": 2,
        })
        assert cli.main(["run", "--config", cfg]) == 4
        assert "numerical failure: sample 2 has an all-zero latent code" in (
            capsys.readouterr().err)
        assert not os.path.exists(out)

    # A learning rate of 1e300 overflows the encoder's products after one
    # Adam step; numpy warns about that before the run can report it.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_latent_code_exits_four(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert cli.main(["gen", "cube", "--height", "8", "--width", "8", "--bands", "4",
                         "--out", str(data)]) == 0
        out = tmp_path / "out"
        out.mkdir()
        (out / "labels.csv").write_text("earlier\n")
        cfg = write_config(tmp_path, {
            "values_path": str(data / "values.sscm"),
            "labels_path": str(data / "labels.sscm"),
            "k_clusters": 2, "out_dir": str(out),
            "pretrain_epochs": 1, "joint_epochs": 1, "learning_rate": 1e300,
        })
        assert cli.main(["run", "--config", cfg]) == 4
        assert "numerical failure: non-finite latent code for sample 0" in (
            capsys.readouterr().err)
        assert os.listdir(out) == ["labels.csv"]
        assert (out / "labels.csv").read_text() == "earlier\n"

    def test_eigensolver_non_convergence_exits_four(self, tmp_path, subspace_data, capsys,
                                                   monkeypatch):
        def stalls(A, k, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                      np.empty((A.shape[0], 0)))

        monkeypatch.setattr(cluster, "eigsh", stalls)
        out = str(tmp_path / "never")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(subspace_data, "values.sscm"),
            "k_clusters": 3, "mode": "classic", "classic_iterations": 5, "out_dir": out,
        })
        assert cli.main(["run", "--config", cfg]) == 4
        assert "numerical failure: spectral eigensolve failed" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_values_file_exits_three(self, tmp_path, capsys):
        out = str(tmp_path / "never")
        cfg = write_config(tmp_path, {
            "values_path": str(tmp_path / "absent.sscm"),
            "k_clusters": 2, "out_dir": out,
        })
        rc = cli.main(["run", "--config", cfg])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_empty_values_csv_exits_three(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text("")
        out = str(tmp_path / "never")
        cfg = write_config(tmp_path, {
            "values_path": str(values), "k_clusters": 2, "mode": "classic", "out_dir": out,
        })
        assert cli.main(["run", "--config", cfg]) == 3
        assert f"data error: {values}: no data" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestClusterCommand:
    def test_cluster_from_saved_matrix(self, tmp_path, subspace_data, capsys):
        classic_out = str(tmp_path / "classic")
        cfg = write_config(tmp_path, {
            "values_path": os.path.join(subspace_data, "values.sscm"),
            "labels_path": os.path.join(subspace_data, "labels.csv"),
            "k_clusters": 3, "mode": "classic", "out_dir": classic_out,
        })
        assert cli.main(["run", "--config", cfg]) == 0
        out = str(tmp_path / "reclustered")
        rc = cli.main(["cluster",
                       "--from-c", os.path.join(classic_out, "similarity.sscm"),
                       "--k", "3", "--truth", os.path.join(subspace_data, "labels.csv"),
                       "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "labels.csv"))
        assert os.path.exists(os.path.join(out, "metrics.json"))
        assert "acc=" in capsys.readouterr().out

    def test_rerun_without_truth_drops_stale_metrics(self, tmp_path, small_c):
        c_path, truth = small_c
        out = tmp_path / "o"
        args = ["cluster", "--from-c", c_path, "--k", "2", "--out", str(out)]
        assert cli.main(args + ["--truth", truth]) == 0
        assert (out / "metrics.json").exists()
        assert cli.main(args) == 0
        assert sorted(os.listdir(out)) == ["labels.csv"]

    def test_short_truth_exits_three_and_writes_nothing(self, tmp_path, small_c, capsys):
        c_path, truth = small_c
        short = tmp_path / "short.csv"
        short.write_text("".join(Path(truth).read_text().splitlines(keepends=True)[:19]))
        out = tmp_path / "o"
        rc = cli.main(["cluster", "--from-c", c_path, "--k", "2", "--truth", str(short),
                       "--out", str(out)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_in_out_dir_is_kept(self, small_c, capsys):
        c_path, truth = small_c
        before = Path(truth).read_bytes()
        rc = cli.main(["cluster", "--from-c", c_path, "--k", "2", "--truth", truth,
                       "--out", os.path.dirname(truth)])
        assert rc == 2
        assert "input labels.csv would be overwritten" in capsys.readouterr().err
        assert Path(truth).read_bytes() == before
        assert not [f for f in os.listdir(os.path.dirname(truth)) if f.startswith(".staging-")]

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "-1"], "--seed"),
        (["--k", "0"], "--k"),
        (["--k", "21"], "--k"),
        (["--k", str(HUGE)], "--k"),
        (["--seed", str(HUGE)], "--seed"),
    ])
    def test_bad_flag_exits_two_and_creates_nothing(self, tmp_path, small_c, capsys,
                                                    argv, flag):
        c_path, _ = small_c
        out = tmp_path / "never"
        rc = cli.main(["cluster", "--from-c", c_path, "--k", "2", *argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}: must be" in err
        assert max(len(line) for line in err.splitlines()) < 120
        assert not out.exists()

    def test_value_error_is_not_reported_as_config_error(self, tmp_path, small_c,
                                                         monkeypatch, capsys):
        from unfold_ssc import cluster

        def broken(S, k, seed):
            raise ValueError("not a configuration problem")

        monkeypatch.setattr(cluster, "spectral_cluster", broken)
        c_path, _ = small_c
        with pytest.raises(ValueError, match="not a configuration problem"):
            cli.main(["cluster", "--from-c", c_path, "--k", "2", "--out", str(tmp_path / "o")])
        assert "config error" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_square_matrix_exits_three(self, tmp_path, subspace_data, capsys):
        rc = cli.main(["cluster",
                       "--from-c", os.path.join(subspace_data, "values.sscm"),
                       "--k", "3", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "square" in capsys.readouterr().err

    def test_empty_csv_matrix_exits_three(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "x"
        rc = cli.main(["cluster", "--from-c", str(empty), "--k", "2", "--out", str(out)])
        assert rc == 3
        assert f"data error: {empty}: no data" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_eval_prints_report(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        pred.write_text("0\n0\n1\n1\n")
        truth.write_text("1\n1\n1\n2\n")
        rc = cli.main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert rc == 0
        scores = json.loads(capsys.readouterr().out)
        assert scores["acc"] == 0.75
        assert scores["n"] == 4

    def test_eval_out_writes_metrics(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("0\n0\n1\n1\n")
        out = tmp_path / "scores"
        assert cli.main(["eval", "--pred", str(pred), "--truth", str(pred),
                         "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads((out / "metrics.json").read_text()) == printed
        assert os.listdir(out) == ["metrics.json"]

    def test_eval_length_mismatch_exits_three(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        pred.write_text("0\n1\n")
        truth.write_text("0\n1\n1\n")
        assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 3
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("pred_text", ["0\n-1\n", "", "0\n0.5\n"],
                             ids=["negative", "empty", "fractional"])
    def test_eval_negative_label_exits_three(self, tmp_path, capsys, pred_text):
        """A bad label file exits with 3 and an error that names the file."""
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        pred.write_text(pred_text)
        truth.write_text("0\n1\n")
        assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(pred) in err


@pytest.mark.parametrize("under_file", [False, True])
@pytest.mark.parametrize("command", ["run", "cluster", "eval", "gen"])
def test_out_on_a_file_exits_two_and_keeps_the_file(tmp_path, small_c, capsys,
                                                    command, under_file):
    """An ``--out`` that is a regular file, or lies under one, is a config
    error; ``run`` reports it before it reads its (here missing) inputs."""
    c_path, truth = small_c
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = str(blocker / "out" if under_file else blocker)
    cfg = write_config(tmp_path, {"values_path": str(tmp_path / "missing.sscm"),
                                  "k_clusters": 2})
    argv = {
        "run": ["run", "--config", cfg],
        "cluster": ["cluster", "--from-c", c_path, "--k", "2"],
        "eval": ["eval", "--pred", truth, "--truth", truth],
        "gen": ["gen", "subspaces"],
    }[command]
    assert cli.main([*argv, "--out", out]) == 2
    assert "config error: out_dir: cannot create directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"


class TestEntryBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "unfold-ssc" in capsys.readouterr().out
