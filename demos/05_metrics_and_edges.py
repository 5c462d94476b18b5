"""Scoring an image pair: PSNR, SSIM, lightness order, edge strength.

PSNR and SSIM measure pointwise and structural fidelity; the
lightness-order error (LOE) counts pairwise brightness-order flips, so
it is zero for any monotone tone curve; the edge report localizes where
Sobel gradient energy was gained or lost, patch by patch.
"""

import numpy as np

import pixelboost as pb
from pixelboost.noise import STREAM_DATASET, RngStream

hr = pb.synth_dataset("mixed", 1, 32, RngStream(3, STREAM_DATASET))[0]
pair = pb.make_lr_pair(hr)
blurry = np.clip(pair.lr_up, 0.0, 1.0)

rep = pb.metric_report(pair.hr, blurry, gt_id="hr", test_id="bicubic")
print("bicubic upsampling vs the original:")
print(rep.csv())

# A pure tone curve changes every pixel but no ordering: LOE stays 0
# while PSNR collapses.
toned = pair.hr ** 0.5
print(f"gamma curve: psnr={pb.psnr(pair.hr, toned):.2f} dB, "
      f"loe={pb.loe(toned, pair.hr)!r}")

# An ideal step edge of height d reads 4d on both flanking columns.
step = np.zeros((8, 8))
step[:, 4:] = 0.25
mag = pb.sobel_magnitude(step)
print(f"step edge of height 0.25 -> magnitude {float(mag[4, 3])!r} at the edge")

# Where did the blur eat edge energy?  Negative entries mean the test
# image is softer than the original in that 8x8 patch.
edge = pb.edge_report(blurry, pair.hr, patch=8)
print("\nper-patch Sobel-magnitude difference (bicubic - original):")
print(pb.grid_csv(edge.diff))

# An intensity profile is one row of the lightness plane, the per-pixel
# max over channels that LOE and the Sobel magnitudes also read.
row = pair.hr.shape[0] // 2
profile_hr = pb.lightness(pair.hr)[row]
profile_lr = pb.lightness(blurry)[row]
print(f"mid-row lightness, original vs bicubic (first 8 columns):")
print("  " + " ".join(f"{v:.2f}" for v in profile_hr[:8]))
print("  " + " ".join(f"{v:.2f}" for v in profile_lr[:8]))
