"""Batch front end: config precedence, exit codes, reproducible output."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from pixelboost import (STREAM_DATASET, RngStream, build_schedule,
                        init_checkpoint, load_checkpoint, make_config,
                        make_lr_pair, read_image, save_checkpoint,
                        spec_for_images, synth_dataset, write_image)
from pixelboost import cli
from pixelboost.cli import SEED_ENV, RunConfig, main


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
        ("train", {"weighting": "bogus"}),
        ("sweep", {"kind": "bogus"}),
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
            assert main(["schedule", "--steps", "5000000", "--out", str(out)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "steps must lie in" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not out.exists()

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
        # exact_kl weights reach ~1e3 near t = 2, so the default step size
        # diverges within a few steps; the overflow on the way is expected
        manifest = self._manifest(tmp_path, count=4)
        ckpt_path = tmp_path / "m.pxbk"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--manifest", str(manifest), "--weighting",
                         "exact_kl", "--checkpoint", str(ckpt_path),
                         "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: loss became non-finite at step ")
        assert "step_size=0.01" in err and "weighting=exact_kl" in err
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
        del ckpt.train_config["sigma"]
        ckpt_path = tmp_path / "nosigma.pxbk"
        save_checkpoint(ckpt, ckpt_path)
        lr_path = tmp_path / "lr.pgm"
        _make_image(lr_path, size=8)
        assert main(["sr", "--input", str(lr_path), "--checkpoint", str(ckpt_path),
                     "--out", str(tmp_path / "o.pgm")]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_eq4_literal_checkpoint_refused_before_upsampling(self, tmp_path, capsys,
                                                              monkeypatch):
        ckpt = init_checkpoint(spec_for_images("conv2"), make_config(seed=0))
        ckpt.train_config["convention"] = "eq4_literal"
        ckpt_path = tmp_path / "eq4.pxbk"
        save_checkpoint(ckpt, ckpt_path)
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

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_sigma_refused_before_reading(self, tmp_path, capsys, monkeypatch,
                                          sigma):
        monkeypatch.setattr(cli, "read_image", _no_reading)
        out = tmp_path / "x.csv"
        assert main(["analyze-noise", "--gt", "gt.pgm", "--test", "t.pgm",
                     "--sigma", sigma, "--out", str(out)]) == 2
        assert "--sigma must be positive and finite" in capsys.readouterr().err
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
        assert "--bins must be >= 2" in capsys.readouterr().err
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
        assert (_sha256(tmp_path / "metrics.csv")
                == "5656b58bdc41a2553e0c22c93306d032444a9e532a5ab5bd5867c9b30b695d8f")

    @pytest.mark.parametrize("grid", ["0", "65", "-1"])
    def test_grid_out_of_range_refused_before_reading(self, capsys, monkeypatch,
                                                      grid):
        monkeypatch.setattr(cli, "read_image", _no_reading)
        assert main(["metrics", "--gt", "gt.pgm", "--test", "t.pgm",
                     "--grid", grid]) == 2
        assert "--grid must lie in 1..64" in capsys.readouterr().err


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
        assert "--patch must be >= 2" in capsys.readouterr().err
        assert not out.exists()


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
        assert "--grid must lie in 1..64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["1.5,inf", "1.5,-1"])
    def test_every_sigma_checked_before_training(self, tmp_path, capsys,
                                                 monkeypatch, sigmas):
        monkeypatch.setattr(cli, "train", _no_training)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--sigmas", sigmas, "--count", "2", "--eval-count", "1",
                "--train-steps", "2", "--out", str(out)]
        assert main(argv) == 1
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
