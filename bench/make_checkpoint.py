"""Regenerate the fixed checkpoint that eval_64 and sr_512 load.

    python3 bench/make_checkpoint.py

Trains conv2 by the toy protocol at the reference seed (200 mixed 16x16
images, 2000 SGD steps of size 0.2, batch 8, sigma 1.5, 15 diffusion
steps), the run criterion 07 of the acceptance tests checks, and writes
it to bench/data/.  It prints the file's SHA-256, which must equal
``workloads.CHECKPOINT_SHA256``; a different hash means training no
longer reproduces the committed file bit for bit.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pixelboost as pb  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import (CHECKPOINT, CHECKPOINT_SHA256, REFERENCE_SEED,  # noqa: E402
                       TOY_BATCH, TOY_SIGMA, TOY_STEP_SIZE, ToyProtocol,
                       toy_training)


def main():
    full = ToyProtocol.FULL
    train_set, _ = toy_training(NullTracer(), pb, full["train_count"],
                                full["test_count"], full["size"])
    cfg = pb.make_config(steps=15, sigma=TOY_SIGMA, seed=REFERENCE_SEED)
    opt = pb.TrainOptions(step_size=TOY_STEP_SIZE, steps=full["sgd_steps"],
                          batch_size=TOY_BATCH)
    ckpt, _ = pb.train(train_set, cfg, opt)
    CHECKPOINT.parent.mkdir(exist_ok=True)
    pb.save_checkpoint(ckpt, CHECKPOINT)
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    print(f"{CHECKPOINT.name} sha256 {digest}")
    if digest != CHECKPOINT_SHA256:
        print(f"differs from the expected {CHECKPOINT_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
