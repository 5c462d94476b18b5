"""Train the small conv net to reverse the degradation.

A two-layer 3x3 conv net sees the noisy state x_t, the bicubic
upsampling y_0, and the schedule position eta_t, and predicts x_0.
Plain SGD on the per-item squared error is enough for it to learn a
useful deblurring on tiny synthetic images; the reverse sampler then
beats feeding the bicubic guess straight through.

Takes roughly half a minute on one core.
"""

import numpy as np

import pixelboost as pb
from pixelboost.denoiser import TrainOptions, as_denoiser, train
from pixelboost.noise import STREAM_DATASET, STREAM_SAMPLER

SEED = 0
cfg = pb.make_config(steps=15, sigma=1.5, seed=SEED)
images = pb.synth_dataset("mixed", 208, 16, pb.RngStream(SEED, STREAM_DATASET))
pairs = [pb.make_lr_pair(hr) for hr in images]
train_set = [(p.hr, p.lr_up) for p in pairs[:200]]
held_out = pairs[200:]

opt = TrainOptions(step_size=0.2, steps=2000, batch_size=8)
ckpt, history = train(train_set, cfg, opt)
window = np.convolve(history, np.ones(25) / 25, mode="valid")
print(f"loss: {window[0]:.4f} (start) -> {window[-1]:.4f} (end), "
      f"smoothed over 25 steps")
print(f"checkpoint: conv2 net, {ckpt.params.size} parameters, "
      f"{ckpt.step_count} SGD steps")

model_scores, baseline_scores = [], []
for j, pair in enumerate(held_out):
    rng = pb.RngStream(SEED, STREAM_SAMPLER).substream(j)
    sr, _ = pb.reverse_sample(pair.lr_up, as_denoiser(ckpt), cfg, rng)
    model_scores.append(pb.psnr(pair.hr, sr))
    baseline_scores.append(pb.psnr(pair.hr, np.clip(pair.lr_up, 0.0, 1.0)))

print(f"\nheld-out PSNR over {len(held_out)} images:")
print(f"  bicubic baseline : {np.mean(baseline_scores):.2f} dB")
print(f"  trained sampler  : {np.mean(model_scores):.2f} dB")
print(f"  gain             : "
      f"{np.mean(model_scores) - np.mean(baseline_scores):+.2f} dB")
