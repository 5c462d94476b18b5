"""Batch front end: config precedence, exit codes, reproducible output."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pixelboost import (STREAM_DATASET, DenoiserSpec, NoiseKind, ParameterError,
                        RngStream, TrainOptions, build_schedule, chi_square,
                        edge_report, init_checkpoint, load_checkpoint, make_config,
                        make_lr_pair, metric_report, noise_fit_report, read_image,
                        save_checkpoint, spec_for_images, synth_dataset, train,
                        write_image)
from pixelboost import cli, denoiser, errors
from pixelboost.cli import SEED_ENV, RunConfig, main

from conftest import with_metadata


def _make_image(path, seed=0, size=16, kind="mixed"):
    img = synth_dataset(kind, 1, size, RngStream(seed, STREAM_DATASET))[0]
    write_image(img, path)
    return read_image(path)


def _residual_file(path, n=640, seed=0):
    sample = 1.5 * RngStream(seed, 5).standard_normal(n)
    path.write_bytes(sample.astype("<f8").tobytes())
    return path


def _noisy_pair(gt, test):
    """A 32x32 image and a noisy copy, the pair the CSV pins score."""
    img = _make_image(gt, seed=6, size=32)
    noisy = np.clip(img + 0.1 * RngStream(7, 5).standard_normal(img.shape),
                    0.0, 1.0)
    write_image(noisy, test)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# SHA-256 of the metrics CSV for _noisy_pair's images named gt.pgm and test.pgm
METRICS_CSV_SHA256 = "5656b58bdc41a2553e0c22c93306d032444a9e532a5ab5bd5867c9b30b695d8f"


def _no_training(*args, **kwargs):
    raise AssertionError("train() was called")


def _no_reading(*args, **kwargs):
    raise AssertionError("read_image() was called")


def _no_resizing(*args, **kwargs):
    raise AssertionError("bicubic_resize() was called")


def _no_pairs(*args, **kwargs):
    raise AssertionError("make_lr_pair() was called")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "schedule" in capsys.readouterr().out

    def test_bad_choice(self, capsys):
        assert main(["schedule", "--mode", "bogus"]) == 2

    def test_weighting_flag_is_gone(self, tmp_path, capsys):
        assert main(["train", "--weighting", "exact_kl", "--manifest",
                     str(tmp_path / "m.txt"), "--checkpoint",
                     str(tmp_path / "m.pxbk")]) == 2
        assert "--weighting" in capsys.readouterr().err

    def test_bad_sigmas(self, tmp_path, capsys):
        assert main(["sweep", "--sigmas", "a,b",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_sigmas(self, tmp_path, capsys):
        assert main(["sweep", "--sigmas", ",",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestConfigPrecedence:
    def _analyze(self, tmp_path, extra, tag):
        sample = tmp_path / "resid.f64"
        if not sample.exists():
            _residual_file(sample)
        out = tmp_path / f"{tag}.csv"
        argv = ["analyze-noise", "--input", str(sample), "--bins", "8",
                "--out", str(out)] + extra
        assert main(argv) == 0
        return out.read_bytes()

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2}))
        with_flag = self._analyze(tmp_path, ["--seed", "1",
                                             "--config", str(cfg)], "a")
        plain = self._analyze(tmp_path, ["--seed", "1"], "b")
        from_cfg = self._analyze(tmp_path, ["--config", str(cfg)], "c")
        assert with_flag == plain
        assert with_flag != from_cfg

    def test_config_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2}))
        monkeypatch.setenv(SEED_ENV, "3")
        got = self._analyze(tmp_path, ["--config", str(cfg)], "a")
        monkeypatch.delenv(SEED_ENV)
        assert got == self._analyze(tmp_path, ["--seed", "2"], "b")

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "7")
        from_env = self._analyze(tmp_path, [], "a")
        monkeypatch.delenv(SEED_ENV)
        assert from_env == self._analyze(tmp_path, ["--seed", "7"], "b")
        assert from_env != self._analyze(tmp_path, [], "c")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "sigma_typo": 2.0}))
        assert main(["schedule", "--config", str(cfg)]) == 2
        assert "sigma_typo" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["schedule", "--config", str(cfg)]) == 2
        cfg.write_bytes(b'\xff{"seed": 1}')
        assert main(["schedule", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command,values", [
        ("forward", {"sigma": "abc"}),
        ("schedule", {"steps": "abc"}),
        ("schedule", {"steps": 15.5}),
        ("schedule", {"steps": None}),
        ("schedule", {"mode": 1}),
        ("degrade", {"input": "a\u0000b"}),  # no path holds a NUL
        # a config value must be one of the flag's choices
        ("schedule", {"mode": "bogus"}),
        # the loss weighting is no setting: train and sweep refuse the key
        ("train", {"weighting": "uniform_mse"}),
        ("sweep", {"kind": "bogus"}),
        ("sweep", {"weighting": "uniform_mse"}),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, values):
        hr = tmp_path / "hr.pgm"
        _make_image(hr)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "forward":
            argv += ["--input", str(hr)]
        assert main(argv) == 2
        assert next(iter(values)) in capsys.readouterr().err

    def test_setting_the_command_does_not_read_is_refused(self, tmp_path, capsys):
        lr = tmp_path / "lr.pgm"
        _make_image(lr, size=8)
        ckpt = tmp_path / "m.pxbk"
        save_checkpoint(init_checkpoint(spec_for_images("conv2"), make_config()),
                        ckpt)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.5}))
        out = tmp_path / "sr.pgm"
        assert main(["sr", "--input", str(lr), "--checkpoint", str(ckpt),
                     "--out", str(out), "--config", str(cfg)]) == 2
        assert "sigma" in capsys.readouterr().err
        assert main(["schedule", "--sigma", "1"]) == 2
        assert "--sigma" in capsys.readouterr().err
        # --sigma is not read as an abbreviation of --sigmas
        csv = tmp_path / "x.csv"
        assert main(["sweep", "--sigmas", "1.5", "--count", "1", "--eval-count",
                     "1", "--train-steps", "1", "--sigma", "1",
                     "--out", str(csv)]) == 2
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists() and not csv.exists()

    def test_config_values_take_their_field_type(self, tmp_path):
        # numeric strings and integral floats run as the equivalent flags do
        hr = tmp_path / "hr.pgm"
        _make_image(hr)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": "6", "sigma": "0.5", "seed": 3.0}))
        blobs = []
        for tag, extra in (("a", ["--config", str(cfg)]),
                           ("b", ["--steps", "6", "--sigma", "0.5", "--seed", "3"])):
            out = tmp_path / tag
            assert main(["forward", "--input", str(hr), "--out", str(out)] + extra) == 0
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        assert blobs[0] == blobs[1]

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["schedule", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["schedule", "--config", str(tmp_path / "no.json")]) == 2

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV, "not-a-number")
        assert main(["schedule", "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("seed", ["-1", "-1000", str(2**63),
                                      "18446744073709551617"])
    def test_seed_outside_range_refused(self, tmp_path, capsys, seed):
        # RngStream would draw seed 0's streams for -1, and drop low bits
        # of seeds >= 2**63
        out = tmp_path / "s.csv"
        assert main(["schedule", "--seed", seed, "--out", str(out)]) == 2
        assert "seed must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_range_checked_after_merging(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -2}))
        assert main(["schedule", "--config", str(cfg)]) == 2
        monkeypatch.setenv(SEED_ENV, "-1")
        assert main(["schedule"]) == 2
        # a valid flag wins over the invalid environment value
        assert main(["schedule", "--seed", str(2**63 - 1)]) == 0
        capsys.readouterr()

    def test_defaults_document_the_surface(self):
        cfg = RunConfig()
        assert cfg.steps == 15 and cfg.sigma == 1.5
        assert cfg.mode == "normalized" and cfg.seed == 0


class TestSchedule:
    def test_stdout_matches_library(self, capsys):
        assert main(["schedule", "--steps", "15"]) == 0
        sched = build_schedule(15)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,eta,alpha"
        assert len(lines) == 16
        t, eta, alpha = lines[8].split(",")
        assert t == "8"
        assert float(eta) == sched.etas[8]
        assert float(alpha) == sched.alphas[7]

    def test_steps_above_bound_refused_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            assert main(["schedule", "--steps", "5000000", "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "steps must lie in" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not out.exists()

    def test_midpoint_past_exp_overflow_writes_no_warning(self):
        # a fresh interpreter, where numpy's overflow warning would reach stderr
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "pixelboost", "schedule", "--steps", "711",
             "--t-mid", "710.3"], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0
        assert run.stderr == ""
        assert len(run.stdout.splitlines()) == 712

    def test_null_config_t_mid_is_the_default(self, tmp_path):
        cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"t_mid": None}))
        assert main(["schedule", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["schedule", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_output_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["schedule", "--steps", "9", "--mode", "raw",
                     "--out", str(a)]) == 0
        assert main(["schedule", "--steps", "9", "--mode", "raw",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDegrade:
    def test_writes_pair_and_residual(self, tmp_path):
        src = tmp_path / "hr.pgm"
        hr = _make_image(src, seed=1)
        out = tmp_path / "deg"
        assert main(["degrade", "--input", str(src), "--out", str(out)]) == 0
        pair = make_lr_pair(hr)
        lr = read_image(out / "lr.pgm")
        assert lr.shape == (4, 4, 1)
        resid = np.fromfile(out / "delta0.f64", dtype="<f8")
        np.testing.assert_array_equal(resid, pair.delta0.ravel())

    def test_reproducible(self, tmp_path):
        src = tmp_path / "hr.pgm"
        _make_image(src, seed=2)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["degrade", "--input", str(src), "--out", str(out)]) == 0
            outs.append(b"".join(sorted(p.read_bytes() for p in out.iterdir())))
        assert outs[0] == outs[1]

    def test_missing_input_flag(self, tmp_path, capsys):
        assert main(["degrade", "--out", str(tmp_path / "x")]) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["degrade", "--input", str(tmp_path / "no.pgm"),
                     "--out", str(tmp_path / "x")]) == 1


class TestForward:
    def test_writes_every_frame(self, tmp_path):
        src = tmp_path / "hr.pgm"
        _make_image(src, seed=3)
        out = tmp_path / "fwd"
        assert main(["forward", "--input", str(src), "--out", str(out),
                     "--steps", "6", "--seed", "4"]) == 0
        frames = sorted(p.name for p in out.iterdir())
        assert frames == [f"frame_{t:03d}.pgm" for t in range(7)]

    def test_seed_changes_frames_reproducibly(self, tmp_path):
        src = tmp_path / "hr.pgm"
        _make_image(src, seed=5)
        blobs = {}
        for tag, seed in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / tag
            assert main(["forward", "--input", str(src), "--out", str(out),
                         "--steps", "6", "--seed", seed]) == 0
            blobs[tag] = b"".join(
                p.read_bytes() for p in sorted(out.iterdir()))
        assert blobs["a"] == blobs["b"]
        assert blobs["a"] != blobs["c"]

    # SHA-256 over each frame's file name and bytes, in name order
    FRAME_DIGESTS = {
        "eq5_variance": "c1a6494014970fc8363bf1ef6dfcb9f5ab75add18ddf2d5216de5f0a2e5312f5",
        "eq4_literal": "42d0dca7d3597c45ccb9614e96f34304ca678507f03b2e0cf00b5a767bf0d641",
    }

    @pytest.mark.parametrize("convention", sorted(FRAME_DIGESTS))
    def test_frames_are_pinned_per_convention(self, tmp_path, convention):
        src = tmp_path / "hr.pgm"
        _make_image(src, seed=3)
        out = tmp_path / "fwd"
        assert main(["forward", "--input", str(src), "--out", str(out),
                     "--steps", "6", "--seed", "4", "--convention", convention]) == 0
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.FRAME_DIGESTS[convention]


class TestTrainAndSr:
    def _manifest(self, tmp_path, count=3):
        names = []
        for i in range(count):
            name = f"train_{i}.pgm"
            _make_image(tmp_path / name, seed=10 + i)
            names.append(name)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(names) + "\n")
        return manifest

    def test_train_then_super_resolve(self, tmp_path):
        manifest = self._manifest(tmp_path)
        ckpt_path = tmp_path / "model.pxbk"
        loss_path = tmp_path / "loss.csv"
        argv = ["train", "--manifest", str(manifest),
                "--checkpoint", str(ckpt_path), "--out", str(loss_path),
                "--train-steps", "30", "--seed", "0"]
        assert main(argv) == 0
        lines = loss_path.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 31
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.step_count == 30

        lr_path = tmp_path / "small.pgm"
        write_image(read_image(tmp_path / "train_0.pgm")[::4, ::4], lr_path)
        sr_path = tmp_path / "sr.pgm"
        assert main(["sr", "--input", str(lr_path),
                     "--checkpoint", str(ckpt_path),
                     "--out", str(sr_path), "--seed", "1"]) == 0
        assert read_image(sr_path).shape == (16, 16, 1)

    # SHA-256 of the loss CSV and the checkpoint; the losses are written
    # with repr, so a last-bit change in any step's loss or parameter shows
    TRAIN_DIGESTS = {
        "loss.csv": "a2c0ac0c01f251c527e6699c2fa5f9a766bb6f973ad479929adf69848b89ba3c",
        "m.pxbk": "3572a35448b1a721237c05f32d59335d3382168ccc4d41364d48bedda6ce477b",
    }

    def test_train_outputs_are_pinned(self, tmp_path):
        manifest = self._manifest(tmp_path, count=4)
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(tmp_path / "m.pxbk"),
                     "--out", str(tmp_path / "loss.csv"), "--train-steps", "40",
                     "--batch-size", "8", "--seed", "0"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.TRAIN_DIGESTS}
        assert digests == self.TRAIN_DIGESTS

    def test_train_reproducible(self, tmp_path):
        manifest = self._manifest(tmp_path, count=2)
        blobs = []
        for tag in ("a", "b"):
            ckpt_path = tmp_path / f"{tag}.pxbk"
            assert main(["train", "--manifest", str(manifest),
                         "--checkpoint", str(ckpt_path),
                         "--train-steps", "10", "--seed", "3"]) == 0
            blobs.append(ckpt_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_sr_reproducible(self, tmp_path):
        manifest = self._manifest(tmp_path, count=2)
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(ckpt_path),
                     "--train-steps", "10", "--seed", "0"]) == 0
        lr_path = tmp_path / "small.pgm"
        write_image(read_image(tmp_path / "train_0.pgm")[::4, ::4], lr_path)
        outs = []
        for tag in ("a", "b"):
            sr_path = tmp_path / f"{tag}.pgm"
            assert main(["sr", "--input", str(lr_path),
                         "--checkpoint", str(ckpt_path),
                         "--out", str(sr_path), "--seed", "5"]) == 0
            outs.append(sr_path.read_bytes())
        assert outs[0] == outs[1]

    def test_divergence_names_step_size(self, tmp_path, capsys):
        # a step size of 1000 diverges within a few steps; the overflow on
        # the way is expected
        manifest = self._manifest(tmp_path, count=4)
        ckpt_path = tmp_path / "m.pxbk"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--manifest", str(manifest), "--step-size",
                         "1000", "--checkpoint", str(ckpt_path),
                         "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: loss became non-finite at step ")
        assert "step_size=1000.0;" in err
        assert "smaller step size" in err
        assert not ckpt_path.exists()

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("\n")
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(tmp_path / "m.pxbk")]) == 2

    def test_manifest_not_utf8(self, tmp_path, capsys):
        manifest = tmp_path / "bad.txt"
        manifest.write_bytes(b"\xff\xfe\n")
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(ckpt_path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not ckpt_path.exists()

    def test_manifest_with_nul(self, tmp_path, capsys):
        # valid UTF-8, but no path can hold a NUL character
        manifest = tmp_path / "nul.txt"
        manifest.write_bytes(b"\x00\x00\x00\n")
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(ckpt_path)]) == 2
        assert "NUL" in capsys.readouterr().err
        assert not ckpt_path.exists()

    @pytest.mark.parametrize("shapes,message", [
        ([(16, 16, 1), (16, 16, 3)], "has 3 channels, but "),
        ([(16, 16, 1), (18, 16, 1)], "is 18x16; training images need"),
    ], ids=["grey-then-colour", "side-not-divisible-by-4"])
    def test_bad_manifest_image_named_before_degrading(
            self, tmp_path, capsys, monkeypatch, shapes, message):
        # a PGM next to a PPM, or a side not divisible by 4, used to fail
        # inside make_lr_pair or train() without naming the file
        names = [f"img_{i}.{'ppm' if shape[2] == 3 else 'pgm'}"
                 for i, shape in enumerate(shapes)]
        for name, shape in zip(names, shapes):
            write_image(np.full(shape, 0.5), tmp_path / name)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(names) + "\n")
        monkeypatch.setattr(cli, "make_lr_pair", _no_pairs)
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(ckpt_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert str(tmp_path / names[1]) in err
        assert not ckpt_path.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_must_be_positive(self, tmp_path, capsys, count):
        # a negative count used to slice the training set from the end
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", "1.5", "--count", count, "--eval-count",
                "4", "--train-steps", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "--count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_raw_mode_refused_before_training(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, count=1)
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest), "--mode", "raw",
                     "--checkpoint", str(ckpt_path), "--train-steps", "2"]) == 2
        assert "--mode" in capsys.readouterr().err
        assert not ckpt_path.exists()

    def test_eq4_literal_refused_before_training(self, tmp_path, capsys):
        # training draws from the eq5_variance marginal, so an eq4_literal
        # label on the checkpoint would be false
        manifest = self._manifest(tmp_path, count=1)
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest),
                     "--convention", "eq4_literal", "--checkpoint", str(ckpt_path),
                     "--train-steps", "2"]) == 2
        assert "--convention" in capsys.readouterr().err
        assert not ckpt_path.exists()

    def test_corrupt_checkpoint(self, tmp_path, capsys):
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        bad = tmp_path / "bad.pxbk"
        bad.write_bytes(b"PXBK\x01\x00\x00")
        assert main(["sr", "--input", str(lr_path), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o.pgm")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_without_sigma(self, tmp_path, capsys):
        cfg = make_config(seed=0)
        ckpt = init_checkpoint(spec_for_images("conv2"), cfg)
        ckpt_path = tmp_path / "nosigma.pxbk"
        save_checkpoint(ckpt, ckpt_path)
        with_metadata(ckpt_path, json.dumps({k: v for k, v in ckpt.train_config.items()
                                             if k != "sigma"}))
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        assert main(["sr", "--input", str(lr_path), "--checkpoint", str(ckpt_path),
                     "--out", str(tmp_path / "o.pgm")]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_checkpoint_with_nested_metadata(self, tmp_path, capsys):
        ckpt = init_checkpoint(spec_for_images("conv2"), make_config(seed=0))
        ckpt_path = tmp_path / "nested.pxbk"
        save_checkpoint(ckpt, ckpt_path)
        with_metadata(ckpt_path, json.dumps(dict(ckpt.train_config, notes=[1])))
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        assert main(["sr", "--input", str(lr_path), "--checkpoint", str(ckpt_path),
                     "--out", str(tmp_path / "o.pgm")]) == 1
        assert "'notes'" in capsys.readouterr().err

    def test_recorded_weighting_does_not_change_sampling(self, tmp_path):
        # checkpoints once trained under exact_kl still load and sample;
        # sampling never reads the recorded weighting
        ckpt = init_checkpoint(spec_for_images("conv2"), make_config(seed=0))
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        outs = []
        for weighting in ("uniform_mse", "exact_kl"):
            ckpt = replace(ckpt, train_config=dict(ckpt.train_config, weighting=weighting))
            ckpt_path = tmp_path / f"{weighting}.pxbk"
            save_checkpoint(ckpt, ckpt_path)
            assert load_checkpoint(ckpt_path).train_config["weighting"] == weighting
            out = tmp_path / f"{weighting}.pgm"
            assert main(["sr", "--input", str(lr_path), "--checkpoint",
                         str(ckpt_path), "--out", str(out), "--seed", "2"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eq4_literal_checkpoint_refused_before_upsampling(self, tmp_path, capsys,
                                                              monkeypatch):
        ckpt = init_checkpoint(spec_for_images("conv2"), make_config(seed=0))
        ckpt_path = tmp_path / "eq4.pxbk"
        save_checkpoint(ckpt, ckpt_path)
        with_metadata(ckpt_path, json.dumps(dict(ckpt.train_config,
                                                 convention="eq4_literal")))
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        monkeypatch.setattr(cli, "bicubic_resize", _no_resizing)
        out = tmp_path / "o.pgm"
        assert main(["sr", "--input", str(lr_path), "--checkpoint", str(ckpt_path),
                     "--out", str(out)]) == 1
        assert "convention" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("image,model", [(3, 1), (1, 3)])
    def test_channel_mismatch_refused_before_upsampling(self, tmp_path, capsys,
                                                        monkeypatch, image, model):
        ckpt_path = tmp_path / "m.pxbk"
        save_checkpoint(init_checkpoint(spec_for_images("conv2", image_channels=model),
                                        make_config(seed=0)), ckpt_path)
        lr_path = tmp_path / ("lr.ppm" if image == 3 else "lr.pgm")
        write_image(np.full((8, 8, image), 0.5), lr_path)
        monkeypatch.setattr(cli, "bicubic_resize", _no_resizing)
        out = tmp_path / "o.pgm"
        assert main(["sr", "--input", str(lr_path), "--checkpoint", str(ckpt_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"has {image} channels" in err and f"takes {model}" in err
        assert not out.exists()

    def test_future_checkpoint_version(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, count=2)
        ckpt_path = tmp_path / "m.pxbk"
        assert main(["train", "--manifest", str(manifest),
                     "--checkpoint", str(ckpt_path),
                     "--train-steps", "5"]) == 0
        raw = bytearray(ckpt_path.read_bytes())
        raw[4] = 99
        ckpt_path.write_bytes(bytes(raw))
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        assert main(["sr", "--input", str(lr_path),
                     "--checkpoint", str(ckpt_path),
                     "--out", str(tmp_path / "o.pgm")]) == 1


class TestAnalyzeNoise:
    def test_ranks_from_flat_file(self, tmp_path):
        sample = _residual_file(tmp_path / "resid.f64")
        out = tmp_path / "fit.csv"
        assert main(["analyze-noise", "--input", str(sample), "--bins", "8",
                     "--sigma", "1.5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,chi_square"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "brownian"

    def test_image_pair_route(self, tmp_path):
        gt, test = tmp_path / "gt.pgm", tmp_path / "test.pgm"
        _noisy_pair(gt, test)
        out = tmp_path / "fit.csv"
        assert main(["analyze-noise", "--gt", str(gt), "--test", str(test),
                     "--bins", "8", "--out", str(out)]) == 0
        assert out.read_text().startswith("family,chi_square\n")

    def test_requires_some_input(self, tmp_path, capsys):
        assert main(["analyze-noise", "--out", str(tmp_path / "x.csv")]) == 2

    # SHA-256 of each route's CSV: the fit statistics keep every bit
    CSV_DIGESTS = {
        "flat_8_bins": "1a2beefdb4240527012ee625fed492736d3d0624b28e44eb96cdab45e05cb3cb",
        "image_pair": "ec43914d43a6fe8bacab46ebf78ba5e8fe211d26715330626ececb2525fe3646",
    }

    def test_csv_is_pinned(self, tmp_path):
        sample = _residual_file(tmp_path / "resid.f64")
        out = tmp_path / "flat.csv"
        assert main(["analyze-noise", "--input", str(sample), "--bins", "8",
                     "--sigma", "1.5", "--out", str(out)]) == 0
        assert _sha256(out) == self.CSV_DIGESTS["flat_8_bins"]
        gt, test = tmp_path / "gt.pgm", tmp_path / "test.pgm"
        _noisy_pair(gt, test)
        out = tmp_path / "pair.csv"
        assert main(["analyze-noise", "--gt", str(gt), "--test", str(test),
                     "--out", str(out)]) == 0
        assert _sha256(out) == self.CSV_DIGESTS["image_pair"]

    @pytest.mark.parametrize("gt_shape,test_shape", [
        ((4, 4, 1), (8, 8, 1)),
        ((16, 16, 1), (16, 16, 3)),  # would broadcast to a 3-channel residual
    ])
    def test_image_pair_shapes_must_match(self, tmp_path, capsys, gt_shape,
                                          test_shape):
        gt, test = tmp_path / "gt.pnm", tmp_path / "test.pnm"
        write_image(np.full(gt_shape, 0.5), gt)
        write_image(np.full(test_shape, 0.25), test)
        out = tmp_path / "x.csv"
        assert main(["analyze-noise", "--gt", str(gt), "--test", str(test),
                     "--out", str(out)]) == 1
        assert "shape mismatch" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_float_refused(self, tmp_path, capsys):
        sample = _residual_file(tmp_path / "odd.f64")
        sample.write_bytes(sample.read_bytes() + b"\x00\x00\x00\x00")
        out = tmp_path / "x.csv"
        assert main(["analyze-noise", "--input", str(sample),
                     "--out", str(out)]) == 1
        assert "float64" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_samples(self, tmp_path, capsys):
        sample = _residual_file(tmp_path / "tiny.f64", n=100)
        assert main(["analyze-noise", "--input", str(sample),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_input_bounded_before_reading(self, tmp_path, capsys, monkeypatch):
        # a file of more values than sample_noise takes is refused unread
        sample = _residual_file(tmp_path / "big.f64")
        monkeypatch.setattr(errors, "_MAX_VALUES", 639)
        monkeypatch.setattr(np, "fromfile", _no_reading)
        out = tmp_path / "x.csv"
        assert main(["analyze-noise", "--input", str(sample), "--out", str(out)]) == 1
        assert f"{sample} asks for 640 values, more than 639" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_sigma_refused_before_reading(self, tmp_path, capsys, monkeypatch,
                                          sigma):
        monkeypatch.setattr(cli, "read_image", _no_reading)
        out = tmp_path / "x.csv"
        assert main(["analyze-noise", "--gt", "gt.pgm", "--test", "t.pgm",
                     "--sigma", sigma, "--out", str(out)]) == 2
        assert ("brownian strength sigma must be positive and finite"
                in capsys.readouterr().err)
        # the flat-file route is checked before its file is opened too
        assert main(["analyze-noise", "--input", str(tmp_path / "absent.f64"),
                     "--sigma", sigma, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    def test_bins_refused_before_reading(self, tmp_path, capsys, monkeypatch,
                                         bins):
        monkeypatch.setattr(cli, "read_image", _no_reading)
        out = tmp_path / "x.csv"
        assert main(["analyze-noise", "--gt", "gt.pgm", "--test", "t.pgm",
                     "--bins", bins, "--out", str(out)]) == 2
        assert "bins must be an integer >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestMetricsCommand:
    def test_csv_output(self, tmp_path, capsys):
        gt = tmp_path / "gt.pgm"
        img = _make_image(gt, seed=8)
        test = tmp_path / "t.pgm"
        write_image(np.clip(img + 0.04, 0.0, 1.0), test)
        assert main(["metrics", "--gt", str(gt), "--test", str(test)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gt,test,psnr_db,ssim,loe,loe_grid"
        cells = lines[1].split(",")
        assert cells[0] == str(gt) and cells[1] == str(test)
        assert 20.0 < float(cells[2]) < 40.0

    def test_requires_both_images(self, tmp_path, capsys):
        gt = tmp_path / "gt.pgm"
        _make_image(gt)
        assert main(["metrics", "--gt", str(gt)]) == 2

    def test_csv_is_pinned(self, tmp_path, monkeypatch):
        # relative paths, since the CSV names both images as given
        monkeypatch.chdir(tmp_path)
        _noisy_pair(tmp_path / "gt.pgm", tmp_path / "test.pgm")
        assert main(["metrics", "--gt", "gt.pgm", "--test", "test.pgm",
                     "--out", "metrics.csv"]) == 0
        assert _sha256(tmp_path / "metrics.csv") == METRICS_CSV_SHA256

    @pytest.mark.parametrize("grid", ["0", "65", "-1"])
    def test_grid_out_of_range_refused_before_reading(self, capsys, monkeypatch,
                                                      grid):
        monkeypatch.setattr(cli, "read_image", _no_reading)
        assert main(["metrics", "--gt", "gt.pgm", "--test", "t.pgm",
                     "--grid", grid]) == 2
        assert "grid must be in 1..64" in capsys.readouterr().err


class TestEdgeReportCommand:
    def test_writes_three_grids(self, tmp_path):
        gt = tmp_path / "gt.pgm"
        img = _make_image(gt, seed=9, size=28)
        test = tmp_path / "t.pgm"
        write_image(img[::-1], test)
        out = tmp_path / "edges"
        assert main(["edge-report", "--gt", str(gt), "--test", str(test),
                     "--out", str(out), "--patch", "7"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["patch_diff.csv", "patch_means_gt.csv",
                         "patch_means_test.csv"]
        diff = np.loadtxt(out / "patch_diff.csv", delimiter=",")
        a = np.loadtxt(out / "patch_means_test.csv", delimiter=",")
        b = np.loadtxt(out / "patch_means_gt.csv", delimiter=",")
        assert diff.shape == (4, 4)
        np.testing.assert_allclose(diff, a - b, atol=1e-15)

    @pytest.mark.parametrize("patch", ["1", "0", "-2"])
    def test_patch_below_two_refused_before_reading(self, tmp_path, capsys,
                                                    monkeypatch, patch):
        monkeypatch.setattr(cli, "read_image", _no_reading)
        out = tmp_path / "edges"
        assert main(["edge-report", "--gt", "gt.pgm", "--test", "t.pgm",
                     "--out", str(out), "--patch", patch]) == 2
        assert "patch must be an integer >= 2" in capsys.readouterr().err
        assert not out.exists()


# computed before sweep and the toy_runs fixture shared _run_model
SWEEP_CSV_SHA256 = "9dae6c108c0d66c2390c456d862b750af2e09ce85344519b79ba0992fe6ce3fa"


class TestSweep:
    def test_csv_shape_and_reproducibility(self, tmp_path):
        argv = ["sweep", "--sigmas", "0.5,1.5", "--count", "2",
                "--eval-count", "1", "--size", "16", "--train-steps", "5",
                "--seed", "0"]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "sigma,psnr_db,ssim,loe"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")
        assert lines[2].startswith("1.5,")

    def test_csv_bytes_are_pinned(self, tmp_path):
        # sigma 1.5's psnr_db, 14.6606469963321, is what the toy_runs
        # fixture's model_psnr gives on these settings: both run _run_pairs
        # and _run_model
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--sigmas", "1.5,0.01", "--count", "24",
                "--eval-count", "6", "--size", "16", "--train-steps", "30",
                "--step-size", "0.2", "--seed", "2", "--out", str(out)]
        assert main(argv) == 0
        assert _sha256(out) == SWEEP_CSV_SHA256

    @pytest.mark.parametrize("sigmas", [[1.5, 0.01], "1.5,0.01"])
    def test_config_sigmas_match_the_flag(self, tmp_path, sigmas):
        # a config's sigmas may be a JSON list of numbers or the flag's string
        argv = ["sweep", "--count", "2", "--eval-count", "1", "--size", "16",
                "--train-steps", "2"]
        flag, cfg = tmp_path / "flag.csv", tmp_path / "cfg.json"
        assert main(argv + ["--sigmas", "1.5,0.01", "--out", str(flag)]) == 0
        cfg.write_text(json.dumps({"sigmas": sigmas}))
        out = tmp_path / "cfg.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == flag.read_bytes()

    def test_nested_config_sigmas_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", _no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigmas": [[1.5]]}))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bad --sigmas value" in capsys.readouterr().err
        assert not out.exists()

    def test_row_does_not_depend_on_sigma_order(self, tmp_path):
        # each held-out image draws from its own substream for every sigma
        argv = ["sweep", "--count", "4", "--eval-count", "2", "--size", "16",
                "--train-steps", "5", "--seed", "3"]
        rows = []
        for sigmas in ("0.5", "1.5,0.5"):
            out = tmp_path / "x.csv"
            assert main(argv + ["--sigmas", sigmas, "--out", str(out)]) == 0
            rows.append(out.read_bytes().splitlines()[-1])
        assert rows[0].startswith(b"0.5,")
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("eval_count", ["0", "-1"])
    def test_eval_count_must_be_positive(self, tmp_path, capsys, eval_count):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", "1.5", "--count", "2", "--eval-count",
                eval_count, "--train-steps", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0", "65"])
    def test_grid_out_of_range_refused_before_training(self, tmp_path, capsys,
                                                       monkeypatch, grid):
        monkeypatch.setattr(cli, "train", _no_training)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", "1.5", "--count", "2", "--eval-count", "1",
                "--train-steps", "2", "--grid", grid, "--out", str(out)]
        assert main(argv) == 2
        assert "grid must be in 1..64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["1.5,inf", "1.5,-1"])
    def test_every_sigma_checked_before_training(self, tmp_path, capsys,
                                                 monkeypatch, sigmas):
        monkeypatch.setattr(cli, "train", _no_training)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", sigmas, "--count", "2", "--eval-count", "1",
                "--train-steps", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_raw_mode_refused_before_training(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", "1.5", "--count", "2", "--eval-count", "1",
                "--train-steps", "2", "--mode", "raw", "--out", str(out)]
        assert main(argv) == 2
        assert "--mode" in capsys.readouterr().err
        assert not out.exists()

    def test_eq4_literal_refused_before_training(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", "1.5", "--count", "2", "--eval-count", "1",
                "--train-steps", "2", "--convention", "eq4_literal",
                "--out", str(out)]
        assert main(argv) == 2
        assert "--convention" in capsys.readouterr().err
        assert not out.exists()


def _refusal(call):
    """The message of the ParameterError that ``call`` raises."""
    with pytest.raises(ParameterError) as info:
        call()
    return str(info.value)


_SAMPLE = np.linspace(-1.0, 1.0, 1000)
_IMG = np.full((16, 16, 1), 0.5)

# each command and flag value the library refuses, whatever the input holds,
# the flags the refusal names (those the refusing setting reads, the typed
# one among them) and the library call that refuses it; OUT is the path
# written on success
FLAG_REFUSALS = [
    ("schedule --steps 1 --out OUT", "--steps", lambda: build_schedule(1)),
    ("schedule --steps 5000000 --out OUT", "--steps", lambda: build_schedule(5000000)),
    ("schedule --t-mid -1 --out OUT", "--steps, --t-mid",
     lambda: build_schedule(15, t_mid=-1.0)),
    ("schedule --t-mid 15 --out OUT", "--steps, --t-mid",
     lambda: build_schedule(15, t_mid=15.0)),
    ("forward --input hr.pgm --out OUT --sigma 0", "--sigma",
     lambda: make_config(sigma=0.0)),
    ("forward --input hr.pgm --out OUT --steps 1", "--steps", lambda: build_schedule(1)),
    ("forward --input hr.pgm --out OUT --sigma 1e200", "--sigma",
     lambda: make_config(sigma=1e200)),
    ("train --manifest m.txt --checkpoint OUT --sigma nan", "--sigma",
     lambda: make_config(sigma=float("nan"))),
    ("train --manifest m.txt --checkpoint OUT --t-mid 0", "--steps, --t-mid",
     lambda: build_schedule(15, t_mid=0.0)),
    ("train --manifest m.txt --checkpoint OUT --step-size 0", "--step-size",
     lambda: TrainOptions(step_size=0.0)),
    ("train --manifest m.txt --checkpoint OUT --batch-size 0", "--batch-size",
     lambda: TrainOptions(batch_size=0)),
    ("train --manifest m.txt --checkpoint OUT --train-steps -1", "--train-steps",
     lambda: TrainOptions(steps=-1)),
    ("train --manifest m.txt --checkpoint OUT --hidden-width 0", "--hidden-width",
     lambda: DenoiserSpec(hidden_width=0)),
    # 37 * 300 + 1 parameters: too many for grey images, and so for any
    ("train --manifest m.txt --checkpoint OUT --hidden-width 300", "--hidden-width",
     lambda: DenoiserSpec(hidden_width=300)),
    ("analyze-noise --input r.f64 --out OUT --sigma 1e301", "--sigma",
     lambda: NoiseKind("brownian", 1e301)),
    ("analyze-noise --gt gt.pgm --test t.pgm --out OUT --sigma -1", "--sigma",
     lambda: NoiseKind("brownian", -1.0)),
    ("analyze-noise --input r.f64 --out OUT --bins 1", "--bins",
     lambda: chi_square(_SAMPLE, _SAMPLE, 1)),
    ("analyze-noise --gt gt.pgm --test t.pgm --out OUT --bins 100000000",
     "--bins",
     lambda: chi_square(_SAMPLE, _SAMPLE, 100000000)),
    ("metrics --gt gt.pgm --test t.pgm --out OUT --grid 0", "--grid",
     lambda: metric_report(_IMG, _IMG, grid=0)),
    ("metrics --gt gt.pgm --test t.pgm --out OUT --grid 65", "--grid",
     lambda: metric_report(_IMG, _IMG, grid=65)),
    ("edge-report --gt gt.pgm --test t.pgm --out OUT --patch 1", "--patch",
     lambda: edge_report(_IMG, _IMG, patch=1)),
    ("sweep --out OUT --sigmas -1", "--sigmas", lambda: make_config(sigma=-1.0)),
    ("sweep --out OUT --sigmas 1.5,inf", "--sigmas",
     lambda: make_config(sigma=float("inf"))),
    ("sweep --out OUT --sigmas 1.5 --steps 1", "--steps", lambda: build_schedule(1)),
    # sweep synthesizes its default --count 16 and --eval-count 4 images at once
    ("sweep --out OUT --sigmas 1.5 --size 10", "--count, --eval-count, --size",
     lambda: synth_dataset("mixed", 20, 10, RngStream(0))),
    ("sweep --out OUT --sigmas 1.5 --size 100000", "--count, --eval-count, --size",
     lambda: synth_dataset("mixed", 20, 100000, RngStream(0))),
    ("sweep --out OUT --sigmas 1.5 --step-size 0", "--step-size",
     lambda: TrainOptions(step_size=0.0)),
    ("sweep --out OUT --sigmas 1.5 --hidden-width 0", "--hidden-width",
     lambda: DenoiserSpec(hidden_width=0)),
    ("sweep --out OUT --sigmas 1.5 --batch-size 0", "--batch-size",
     lambda: TrainOptions(batch_size=0)),
    # sweep trains on its default --size 16 images
    ("sweep --out OUT --sigmas 1.5 --batch-size 300000",
     "--batch-size, --size, --hidden-width",
     lambda: train([(_IMG, _IMG)], make_config(), TrainOptions(batch_size=300000))),
    ("sweep --out OUT --sigmas 1.5 --grid 65", "--grid",
     lambda: metric_report(_IMG, _IMG, grid=65)),
]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name}() was called")
    return refuse


class TestFlagValues:
    """A flag value the library refuses is a usage error, found before any
    input is read or any model trained; a refusal that depends on what the
    input holds is a runtime failure."""

    @pytest.mark.parametrize("argv,flags,call", FLAG_REFUSALS,
                             ids=[argv for argv, *_ in FLAG_REFUSALS])
    def test_refused_value_exits_2_before_reading(self, tmp_path, capsys,
                                                  monkeypatch, argv, flags, call):
        message = f"{flags}: {_refusal(call)}"
        for module, name in ((cli, "read_image"), (np, "fromfile"),
                             (cli, "load_checkpoint"), (cli, "train")):
            monkeypatch.setattr(module, name, _refuse(name))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(argv.replace("OUT", str(out)).split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_refused_config_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"steps": 1}))
        assert main(["schedule", "--config", str(config)]) == 2
        message = _refusal(lambda: build_schedule(1))
        assert capsys.readouterr().err == f"error: --steps: {message}\n"

    @staticmethod
    def _patch_larger_than_image(tmp_path):
        for name in ("gt.pgm", "t.pgm"):
            _make_image(tmp_path / name, size=16)
        return ("edge-report --gt gt.pgm --test t.pgm --out OUT --patch 100",
                lambda: edge_report(_IMG, _IMG, patch=100))

    @staticmethod
    def _sample_too_small_for_bins(tmp_path):
        _residual_file(tmp_path / "r.f64", n=100)
        return ("analyze-noise --input r.f64 --out OUT",
                lambda: noise_fit_report(_SAMPLE[:100], 1.5, RngStream(0)))

    @staticmethod
    def _width_too_wide_for_colour(tmp_path):
        # 37 * 200 + 1 parameters fit grey images; 91 * 200 + 3 do not fit colour
        write_image(np.full((16, 16, 3), 0.5), tmp_path / "c.ppm")
        (tmp_path / "m.txt").write_text("c.ppm\n")
        return ("train --manifest m.txt --checkpoint OUT --hidden-width 200",
                lambda: DenoiserSpec(image_channels=3, hidden_width=200))

    @staticmethod
    def _mismatched_images(tmp_path):
        _make_image(tmp_path / "gt.pgm", size=16)
        _make_image(tmp_path / "t.pgm", size=20)
        return ("metrics --gt gt.pgm --test t.pgm --out OUT",
                lambda: metric_report(_IMG, np.zeros((20, 20, 1))))

    @pytest.mark.parametrize("case", ["_patch_larger_than_image",
                                      "_sample_too_small_for_bins",
                                      "_width_too_wide_for_colour",
                                      "_mismatched_images"])
    def test_refusal_of_the_input_exits_1(self, tmp_path, capsys, monkeypatch,
                                          case):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "train", _no_training)
        argv, call = getattr(self, case)(tmp_path)
        message = _refusal(call)
        out = tmp_path / "out"
        assert main(argv.replace("OUT", str(out)).split()) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_batch_too_large_for_the_images_exits_1(self, tmp_path, capsys,
                                                   monkeypatch):
        # train's bound on the batch depends on the manifest's image sizes
        _make_image(tmp_path / "a.pgm", size=16)
        (tmp_path / "m.txt").write_text("a.pgm\n")
        message = _refusal(lambda: train([(_IMG, _IMG)], make_config(),
                                         TrainOptions(batch_size=300000)))
        monkeypatch.setattr(denoiser, "_losses_and_gradients", _no_training)
        out = tmp_path / "out.pxbk"
        argv = ["train", "--manifest", str(tmp_path / "m.txt"), "--checkpoint",
                str(out), "--batch-size", "300000"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# an interpreter in which any scipy import fails scores grey and colour
# pairs through the library, then runs the commands given as JSON
_WITHOUT_SCIPY = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
import numpy as np
import pixelboost as pb
from pixelboost import cli

rng = np.random.default_rng(0)
for shape in [(32, 32), (32, 32, 3)]:
    a = rng.random(shape)
    b = np.clip(a + 0.1 * rng.standard_normal(shape), 0.0, 1.0)
    pb.ssim(a, b)
    pb.edge_report(a, b)
    pb.metric_report(a, b)
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_library_runs_without_scipy(tmp_path):
    # a fresh interpreter: the test run has already imported scipy.stats
    _noisy_pair(tmp_path / "gt.pgm", tmp_path / "test.pgm")
    pair = ["--gt", "gt.pgm", "--test", "test.pgm"]
    commands = [["metrics", *pair, "--out", "metrics.csv"],
                ["edge-report", *pair, "--out", "edges"],
                ["sweep", "--sigmas", "1.5", "--count", "2", "--eval-count", "1",
                 "--size", "16", "--train-steps", "2", "--out", "sweep.csv"]]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, 0, 0]
    assert _sha256(tmp_path / "metrics.csv") == METRICS_CSV_SHA256
