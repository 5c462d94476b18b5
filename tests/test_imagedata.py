"""Image tensors, bicubic resampling, synthetic data, and netpbm I/O."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import pixelboost as pb
from pixelboost import (CodecError, ParameterError, ShapeError,
                        UnsupportedFormatError, imagedata)
from pixelboost.noise import STREAM_DATASET


def _rng(seed=0):
    return pb.RngStream(seed, STREAM_DATASET)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# SHA-256 of the set-up path's outputs as rebuilt-per-call weight matrices
# and dense index grids made them; the cached matrices and broadcast grids
# must reproduce every value bit for bit.  The 512 and 516 entries other
# than ("mixed", 512) are the whole-image fills' outputs, which the banded
# fills must reproduce: 516 rows end in a short band.
SYNTH_DIGESTS = {
    ("gradients", 16): "7ee3bae7515b7b5f84f5be6c6cf407792132635ac5694ccd8685e10186394855",
    ("gradients", 64): "05a21df24bcf07c29eb7c672c3293f81f9b5c6235cb87de57ae1b60c06d8ffb2",
    ("checkers", 16): "c015d8293b010ca5188fce038c9e711ffd056b6d825f725c66f9166bc8ddda10",
    ("checkers", 64): "47ceb0e277a25bc7703e85d0227206059997bb7b1cdc6604c470fde452eaecdf",
    ("blobs", 16): "277d360d85dd812a69400852f6dedc9a0d9520640608e27a426bd4a6b89445d5",
    ("blobs", 64): "959ed20960d6da1b11f14e53bc65e3fe5ada15c9566f73161cdf33b5d26f4025",
    ("mixed", 16): "743d211026bb0406dc6c4cec7ff5a0259431d3355bef3790170e56f76f2ab366",
    ("mixed", 64): "bece1a45b3e51d8423c2c1032721765209e767e6c2d4090863bd4dba5c5ba8d0",
    ("mixed", 512): "099f36965253bd2da02e1a511587e5bf23bd365f27ef27353d7d6aac28a536ab",
    ("gradients", 512): "987d9757e86a34c555b3cd6ae01dfd3767dad3b43f6991af56f11f36db7e8b76",
    ("checkers", 512): "5be8da294c4ba6f78bd3d78b9ac104add9a28b10d8e48581a89ebbcebcc04908",
    ("blobs", 512): "7d8b492b0347342be980fd028303876751f18ae6758b94243a1dcdc68a9187ce",
    ("gradients", 516): "826508034a256a9dfbcc28ba0d6672ef000e1273399530ea76c712b99bf66eb2",
    ("checkers", 516): "fcbc46bdc359c7f30a6b01355f27046e27cbb5ccfe977ded4aaafbfccc3412c9",
    ("blobs", 516): "cea4616da0c1b282c019f62a698cacfbf5d416942bb5721ca9448851f5227c32",
    ("mixed", 516): "3dd55cc1507c0cdf3496cfc581f96a35e2090a4a41c82a16f18697ea18198b2f",
}
# where each SYNTH_DIGESTS call leaves its stream, as _stream_state reads it:
# a change in the order or number of draws shows here even where the pixels
# happen to agree
SYNTH_STATES = {
    ("gradients", 16): (15, 0, 0, 0, 4, 0, 0),
    ("gradients", 64): (4, 0, 0, 0, 3, 0, 0),
    ("checkers", 16): (18, 0, 0, 0, 2, 0, 1047867252),
    ("checkers", 64): (5, 0, 0, 0, 2, 1, 2390086224),
    ("blobs", 16): (53, 0, 0, 0, 2, 0, 3585451296),
    ("blobs", 64): (12, 0, 0, 0, 4, 1, 1651007263),
    ("mixed", 16): (96, 0, 0, 0, 4, 0, 2904963979),
    ("mixed", 64): (25, 0, 0, 0, 1, 0, 3483281650),
    ("mixed", 512): (6, 0, 0, 0, 1, 0, 4048072561),
    ("gradients", 512): (1, 0, 0, 0, 3, 0, 0),
    ("checkers", 512): (1, 0, 0, 0, 4, 1, 1637616587),
    ("blobs", 512): (5, 0, 0, 0, 2, 1, 1637616587),
    ("gradients", 516): (1, 0, 0, 0, 3, 0, 0),
    ("checkers", 516): (1, 0, 0, 0, 4, 1, 1637616587),
    ("blobs", 516): (5, 0, 0, 0, 2, 1, 1637616587),
    ("mixed", 516): (6, 0, 0, 0, 1, 0, 4048072561),
}
PAIR_DIGESTS = {  # (lr, lr_up)
    16: ("f6afbee32c876dd4cf8924b5425c2ef3474b175ca0361708a681fd221125b0f0",
         "1d4cc50672061ca65e004b043a8d7e6a1985512c859d9eef5dace4db97a767f0"),
    64: ("d38915cbcb414b7196555d96409e0b21db9f6d41a7089b996b5ab1cd512e14ca",
         "bf7777c685b29d3da2ee5c416a5aac2e1f07b052dfe667e06a1f4fdc1898eac2"),
    512: ("09ce27519d9c05030ff2735401efaaa6798e40d798d468f6905d3f21b49ee4fe",
          "71edf5873461cc41d8c01e8dd16aa14a500a04f974fad8bfeb757e529a8ee24c"),
    "colour": ("2bfcd48bf14790065b709542932790d7bc1794aec22357aba5632b535ebd0c0c",
               "abdf247c35b9844b3ed2cb81c2a7f361c2f73b85e4ad52d0113d83cb9fbe7416"),
}


def _stream_state(rng):
    """Philox's block counter, the next word of its buffered block, and its
    held 32-bit half, if any: where the stream's next draw starts."""
    state = rng.bit_generator.state
    return (*map(int, state["state"]["counter"]), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


def _pair_input(key):
    if key == "colour":
        return _rng(13).uniform(0.0, 1.0, (20, 28, 3))
    return pb.synth_dataset("mixed", 1, key, _rng(12))[0]


# SHA-256 of bicubic_resize's outputs as einsum over dense weight matrices
# made them: for each (channels, scale), every input of side 1-9 the scale
# does not collapse, and a grey input 8200 columns wide
RESIZE_SCALES = (0.25, 4, 1, 2, 0.5, 0.3, 2.5)
RESIZE_DIGESTS = {
    (1, 0.25): "e945de754dd6315426e0dde920765d6b41365f2ffeb0e55b243674d646138bbb",
    (1, 4): "2c7417f8f40559096762900d25aa1a0e286c4499dce442ba06395d7f1401b1b4",
    (1, 1): "f5f39b2cd6f49b023e0ad37f0ec1a4933e4fc204f9f522dfcb9713ba55f75f67",
    (1, 2): "d1cd349b85afccf4ce8b8d7085a132a63df790332161311ae8c537a507a8c889",
    (1, 0.5): "618aa6fe87aa0567e5b1ea85bd6cc6b5c287947e53a6b573ff49d2207bb137be",
    (1, 0.3): "15c75f97b1a2faf64a1940559cccbff96f6ce07bf826ec467955f4ab841139b6",
    (1, 2.5): "5e57c9e11871f857551293fd872afbbf43d4a86dfb6ca3c08bb4ded21b702ac2",
    (3, 0.25): "f9713fec3226ed0552c0e77a76e7cd45ab4454067e3beed5ce75dc002fd0da36",
    (3, 4): "b4fa68eb90ea40a1c102411dfb2f2e1891b75ba41be84a88ff9225a13d7342ea",
    (3, 1): "0e333ee64d6ca3615234398ebc442a721f6ed8468e86aab59f420711a9cb1e38",
    (3, 2): "d8941393646f8e78f8f9f87fc226d65b4ff8645e96ec3376e9f3ead7e73b13a2",
    (3, 0.5): "d1e1e194fa8fdb428676b650c7843feb0f1442181244a8155533cc24e4ab7714",
    (3, 0.3): "094acb97034074760a8b234d9cd47af4695010fdb54c80176c9e4d2aa10e3f68",
    (3, 2.5): "3418d9a98a9adb6126795383abba083162e58333ccee17aa5c7f9ec3712ca4e0",
    "wide": "a77877b46f31d0ba72c4e9d04dd86adf48ba8243729d5c3e2eee15382459302a",
}


def _resize_input(shape, seed):
    """Values in [-1, 1), about a third of them +0.0 or -0.0."""
    rng = _rng(seed)
    img = rng.uniform(-1.0, 1.0, shape)
    zeros = rng.integers(0, 6, shape)
    img[zeros == 0] = 0.0
    img[zeros == 1] = -0.0
    return img


def _resize_weights(n_in, n_out):
    """Dense (n_out, n_in) bicubic weight matrix of imagedata._taps."""
    positions, taps = imagedata._taps(n_in, n_out)
    weights = np.zeros((n_out, n_in))
    np.add.at(weights, (np.arange(n_out), positions), taps)
    return weights


def _ref_resize(img, scale):
    """The reference resize: einsum over the dense weights, C-contiguous."""
    img = np.ascontiguousarray(pb.as_image(img))
    h, w, _ = img.shape
    wr = _resize_weights(h, int(round(h * scale)))
    wc = _resize_weights(w, int(round(w * scale)))
    return np.einsum("oh,hwc->owc", wr, np.einsum("ow,hwc->hoc", wc, img))


def _assert_same_bits(out, ref):
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


class TestAsImage:
    def test_promotes_2d_to_single_channel(self):
        img = pb.as_image(np.zeros((4, 5)))
        assert img.shape == (4, 5, 1)

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ShapeError):
            pb.as_image(np.zeros((4, 4, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((4, 4, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            pb.as_image(bad)


class TestBicubicResize:
    def test_weight_rows_sum_to_one(self):
        # partition of unity must survive border clipping
        for n_in, n_out in [(16, 4), (4, 16), (7, 13), (13, 7), (5, 5)]:
            w = _resize_weights(n_in, n_out)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_constant_image_is_preserved(self):
        img = np.full((8, 8, 1), 0.37)
        out = pb.bicubic_resize(img, 4)
        np.testing.assert_allclose(out, 0.37, rtol=0, atol=1e-12)

    def test_identity_at_scale_one(self):
        img = _rng().uniform(0.0, 1.0, (6, 7, 1))
        np.testing.assert_allclose(pb.bicubic_resize(img, 1), img,
                                   rtol=0, atol=1e-12)

    def test_output_shape(self):
        img = np.zeros((8, 12, 3))
        assert pb.bicubic_resize(img, 0.25).shape == (2, 3, 3)
        assert pb.bicubic_resize(img, 4).shape == (32, 48, 3)

    def test_linear_ramp_interior_preserved(self):
        # cubic convolution reproduces degree-1 polynomials away from borders
        x = np.linspace(0.0, 1.0, 16)
        img = np.tile(x, (16, 1))[:, :, None]
        up = pb.bicubic_resize(img, 2)
        xs = (np.arange(32) + 0.5) / 2.0 - 0.5
        expect = np.interp(xs, np.arange(16), x)
        np.testing.assert_allclose(up[16, 4:-4, 0], expect[4:-4],
                                   rtol=0, atol=1e-12)

    def test_collapsing_scale_rejected(self):
        with pytest.raises(ParameterError):
            pb.bicubic_resize(np.zeros((4, 4, 1)), 0.01)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"),
                                       "4", None, True])
    def test_non_finite_or_non_numeric_scale_refused(self, scale):
        with pytest.raises(ParameterError):
            pb.bicubic_resize(np.zeros((4, 4, 1)), scale)

    def test_cached_tap_tables_are_read_only(self):
        pb.bicubic_resize(np.zeros((16, 16, 1)), 0.25)
        for axis, h, w in ((1, 16, 16), (0, 16, 4)):
            *_, bands = imagedata._pass_taps(axis, h, w, 1, 4)
            for *_, index, weights in bands:
                for table in (index, weights):
                    with pytest.raises(ValueError):
                        table[0, 0] = 1

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("scale", RESIZE_SCALES)
    def test_pinned_bits(self, channels, scale):
        outs = [pb.bicubic_resize(_resize_input((h, w, channels), 100 * h + w), scale)
                for h in range(1, 10) for w in range(1, 10)
                if round(h * scale) >= 1 and round(w * scale) >= 1]
        assert _digest(*outs) == RESIZE_DIGESTS[channels, scale]

    def test_pinned_bits_wider_than_8192(self):
        out = pb.bicubic_resize(_resize_input((4, 8200, 1), 7), 0.25)
        assert _digest(out) == RESIZE_DIGESTS["wide"]

    def test_matches_einsum_reference(self):
        # random shapes and scales; inputs with signed zeros, and all -0.0
        rng = np.random.default_rng(20)
        for case in range(300):
            h, w = (int(v) for v in rng.integers(1, 40, 2))
            c = int(rng.choice([1, 3]))
            scale = float(rng.choice([0.25, 0.5, 0.3, 0.7, 1.0, 1.3, 2.0, 2.5, 4.0]))
            if round(h * scale) < 1 or round(w * scale) < 1:
                continue
            img = _resize_input((h, w, c), 1000 + case)
            if case % 10 == 0:
                img = np.full((h, w, c), -0.0)
            _assert_same_bits(pb.bicubic_resize(img, scale), _ref_resize(img, scale))

    def test_matches_einsum_reference_across_bands(self):
        # several bands per pass, a short last band, and one-pixel-wide sides
        for shape, scale in [((300, 70, 1), 4), ((70, 300, 3), 2.5), ((600, 2, 1), 0.5),
                             ((1, 600, 1), 2), ((257, 129, 3), 0.3)]:
            img = _resize_input(shape, sum(shape))
            _assert_same_bits(pb.bicubic_resize(img, scale), _ref_resize(img, scale))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_output_ignores_memory_layout(self, channels):
        # einsum summed a strided or Fortran-ordered grey image's rows in
        # position order, so its last bits followed the input's layout
        wide = _resize_input((12, 26, channels), 3)
        for img in (wide[:, ::2], wide[::-1, 1:-1:3], np.asfortranarray(wide)):
            for scale in (4, 0.25, 2.5):
                _assert_same_bits(pb.bicubic_resize(img, scale),
                                  _ref_resize(np.ascontiguousarray(img), scale))

    @pytest.mark.parametrize("side,scale,mib", [(128, 4, 2.5), (512, 4, 40.0)])
    def test_peak_memory(self, side, scale, mib):
        # the output and the column pass, as einsum held them, plus at most
        # 2 MiB of band temporaries: an unbanded four-tap gather held 168
        # MiB at 512^2 -> 2048^2
        img = _rng(4).uniform(0.0, 1.0, (side, side, 1))
        pb.bicubic_resize(img, scale)  # builds the cached tap tables
        tracemalloc.start()
        try:
            pb.bicubic_resize(img, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (mib + 2.0) * 2**20


class TestMakeLrPair:
    def test_shapes(self):
        hr = pb.synth_dataset("mixed", 1, 16, _rng())[0]
        pair = pb.make_lr_pair(hr)
        assert pair.lr.shape == (4, 4, 1)
        assert pair.lr_up.shape == (16, 16, 1)
        assert pair.delta0.shape == (16, 16, 1)

    def test_residual_identity_is_exact(self):
        hr = pb.synth_dataset("mixed", 1, 16, _rng(3))[0]
        pair = pb.make_lr_pair(hr)
        np.testing.assert_array_equal(pair.hr + pair.delta0, pair.lr_up)

    def test_constant_image_has_zero_residual(self):
        pair = pb.make_lr_pair(np.full((8, 8, 1), 0.6))
        np.testing.assert_allclose(pair.delta0, 0.0, rtol=0, atol=1e-12)

    def test_checkerboard_has_nonzero_residual(self):
        hr = pb.synth_dataset("checkers", 1, 16, _rng(5))[0]
        pair = pb.make_lr_pair(hr)
        assert np.mean(np.abs(pair.delta0)) > 0.0

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ParameterError):
            pb.make_lr_pair(np.zeros((10, 8, 1)))


class TestSynthDataset:
    @pytest.mark.parametrize("kind", pb.SYNTH_KINDS)
    def test_values_in_unit_range(self, kind):
        for img in pb.synth_dataset(kind, 20, 16, _rng(1)):
            assert img.shape == (16, 16, 1)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_same_seed_same_dataset(self):
        a = pb.synth_dataset("mixed", 5, 16, _rng(9))
        b = pb.synth_dataset("mixed", 5, 16, _rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_mixed_images_are_non_degenerate(self):
        imgs = pb.synth_dataset("mixed", 100, 16, _rng(2))
        degenerate = sum(1 for im in imgs if im.var() == 0.0)
        assert degenerate <= 1

    def test_checkers_are_two_level(self):
        # a board whose cell spans the whole image shows just one level
        for img in pb.synth_dataset("checkers", 10, 32, _rng(4)):
            assert np.unique(img).size <= 2

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            pb.synth_dataset("noise", 1, 16, _rng())
        with pytest.raises(ParameterError):
            pb.synth_dataset("mixed", 1, 15, _rng())
        with pytest.raises(ParameterError):
            pb.synth_dataset("mixed", 0, 16, _rng())

    @pytest.mark.parametrize("kind", pb.SYNTH_KINDS)
    def test_peak_memory(self, kind):
        # the 2 MiB image and at most 1 MiB of band work arrays: the
        # whole-image fills held 4.3-8 MiB
        rng = _rng(6)
        tracemalloc.start()
        try:
            (img,) = pb.synth_dataset(kind, 1, 512, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.flags.c_contiguous and img.shape == (512, 512, 1)
        assert peak <= img.nbytes + 2**20

    @pytest.mark.parametrize("count, size", [(2.5, 16), (True, 16), (1, 16.0),
                                             (1, 16.5), ("2", 16)])
    def test_non_integer_count_or_size_refused(self, count, size):
        with pytest.raises(ParameterError):
            pb.synth_dataset("mixed", count, size, _rng())


class TestBitIdentityPins:
    @pytest.mark.parametrize("kind,size", sorted(SYNTH_DIGESTS))
    def test_synth_dataset(self, kind, size):
        count = {16: 20, 64: 5, 512: 1, 516: 1}[size]
        rng = _rng(11)
        images = pb.synth_dataset(kind, count, size, rng)
        assert _digest(*images) == SYNTH_DIGESTS[kind, size]
        assert _stream_state(rng) == SYNTH_STATES[kind, size]

    @pytest.mark.parametrize("key", list(PAIR_DIGESTS), ids=str)
    def test_make_lr_pair(self, key):
        # twice: the second call reads the cached weight matrices
        for _ in range(2):
            pair = pb.make_lr_pair(_pair_input(key))
            assert (_digest(pair.lr), _digest(pair.lr_up)) == PAIR_DIGESTS[key]


class TestCodec:
    def test_quantization_values(self):
        img = np.array([[[0.0], [0.5], [1.0]]])
        np.testing.assert_array_equal(pb.quantize(img).ravel(),
                                      [0, 128, 255])

    def test_roundtrip_equals_quantized_values(self, tmp_path):
        img = _rng(7).uniform(0.0, 1.0, (9, 5, 1))
        back = pb.image_roundtrip(img, tmp_path / "x.pgm")
        np.testing.assert_array_equal(back, pb.quantize(img) / 255.0)

    def test_roundtrip_is_idempotent_after_first_write(self, tmp_path):
        img = _rng(8).uniform(-0.2, 1.2, (6, 6, 3))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        once = pb.image_roundtrip(img, p1)
        pb.write_image(once, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_image_bytes_matches_file(self, tmp_path):
        img = _rng(9).uniform(0.0, 1.0, (4, 7, 3))
        path = tmp_path / "x.ppm"
        pb.write_image(img, path)
        assert path.read_bytes() == pb.write_image_bytes(img)

    def test_header_layout(self):
        data = pb.write_image_bytes(np.zeros((4, 4, 3)))
        assert data.startswith(b"P6\n4 4\n255\n")
        assert len(data) == len(b"P6\n4 4\n255\n") + 48

    def test_single_channel_uses_p5(self):
        assert pb.write_image_bytes(np.zeros((2, 2, 1))).startswith(b"P5")

    def test_comments_in_header_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = pb.read_image(path)
        np.testing.assert_allclose(img.ravel() * 255.0, [0, 64, 128, 255])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P3\n2 2\n255\n")
        with pytest.raises(UnsupportedFormatError):
            pb.read_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(UnsupportedFormatError):
            pb.read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(CodecError):
            pb.read_image(path)

    @pytest.mark.parametrize("header", [b"P5\n99999999999999999999 1\n255\n",
                                        b"P6\n2 99999999999999999999\n255\n"])
    def test_oversized_dimensions(self, tmp_path, header):
        # the declared payload is checked against the file before any read
        path = tmp_path / "big.pgm"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(CodecError):
            pb.read_image(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\nxx yy\n255\n")
        with pytest.raises(CodecError):
            pb.read_image(path)
