"""Degrade an image along the forward chain, then walk it back.

Forward: each step adds a slice of the residual delta_0 = y_0 - x_0
(LR-upsampled minus HR) plus Brownian noise with variance sigma^2
alpha_t, so by step t the image carries eta_t of the residual and
sigma^2 eta_t of noise.  Reverse: given a prediction of x_0, each
posterior step strips one slice away again.  With a perfect prediction
the chain returns x_0 exactly.
"""

import numpy as np

import pixelboost as pb
from pixelboost.noise import STREAM_DATASET, STREAM_FORWARD, STREAM_SAMPLER

cfg = pb.make_config(steps=15, sigma=1.5, seed=0)
hr = pb.synth_dataset("mixed", 1, 16, pb.RngStream(0, STREAM_DATASET))[0]
pair = pb.make_lr_pair(hr)
print(f"HR {pair.hr.shape} -> LR {pair.lr.shape} -> upsampled "
      f"{pair.lr_up.shape}; residual spread {pair.delta0.std():.4f}")

# Run the forward chain and compare each visited state against the
# closed-form marginal N(x_0 + eta_t delta_0, sigma^2 eta_t).
_, path = pb.forward_chain(pair.hr, pair.delta0, cfg,
                           pb.RngStream(0, STREAM_FORWARD),
                           keep_trajectory=True)
print(f"\n{'t':>3} {'eta_t':>8} {'mean |x_t - x_0|':>18} {'expected':>10}")
for t in (0, 3, 8, 12, 15):
    eta = cfg.schedule.etas[t]
    drift = np.mean(np.abs(path[t] - pair.hr))
    # per-pixel |N(eta*delta, sigma^2 eta)| has mean near its std when
    # the drift is small compared to the noise
    expected = np.mean(np.abs(eta * pair.delta0)) + 0.8 * np.sqrt(
        cfg.sigma**2 * eta)
    print(f"{t:>3} {eta:>8.4f} {drift:>18.4f} {expected:>10.4f}")

# Reverse with an oracle that already knows x_0: the posterior chain
# collapses onto the truth, down to the last bit.
oracle = pb.OracleDenoiser(pair.hr)
restored, frames = pb.reverse_sample(pair.lr_up, oracle, cfg,
                                     pb.RngStream(0, STREAM_SAMPLER),
                                     keep_trajectory=True)
print(f"\noracle reverse: max |restored - HR| = "
      f"{float(np.max(np.abs(restored - pair.hr)))!r}")
print(f"visited {len(frames)} states from x_T down to x_0")

# The same chain driven by the bicubic guess (pretend we only know y_0)
# lands on y_0 instead -- the sampler is only as good as its predictor.
naive = pb.OracleDenoiser(np.clip(pair.lr_up, 0.0, 1.0))
blurry, _ = pb.reverse_sample(pair.lr_up, naive, cfg,
                              pb.RngStream(0, STREAM_SAMPLER))
print(f"bicubic-guess reverse: PSNR vs HR = {pb.psnr(pair.hr, blurry):.2f} dB "
      f"(bicubic baseline {pb.psnr(pair.hr, np.clip(pair.lr_up, 0, 1)):.2f} dB)")
