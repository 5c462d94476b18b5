"""Brownian residual-shifting diffusion for image super-resolution.

A small numpy/scipy library: a sigmoid shifting schedule moves the
bicubic-upsampling residual into a low-resolution image along a
Brownian bridge-like forward chain; a trainable toy denoiser reverses
it.  Includes noise-distribution analysis, image-quality metrics, and a
batch CLI.
"""

from .analysis import (FIT_FAMILIES, REFERENCE_STATISTICS, FitReport,
                       chi_square, noise_fit_report)
from .denoiser import (DenoiserCheckpoint, DenoiserSpec, OracleDenoiser,
                       TrainOptions, as_denoiser, init_checkpoint,
                       load_checkpoint, loss_gradient, predict,
                       save_checkpoint, spec_for_images, train)
from .diffusion import (CONVENTIONS, WEIGHTINGS, DiffusionConfig,
                        forward_chain, forward_marginal, forward_step,
                        item_loss, kl_weight, loss_weight, make_config,
                        posterior_params, reverse_sample, step_increment)
from .errors import (CheckpointError, CheckpointVersionError, CodecError,
                     DegenerateFitError, NumericError, ParameterError,
                     PixelBoostError, ShapeError, TrainingError,
                     UnsupportedFormatError)
from .imagedata import (SYNTH_KINDS, SrPair, as_image, bicubic_resize,
                        image_roundtrip, make_lr_pair, quantize, read_image,
                        resize_weights, synth_dataset, write_image,
                        write_image_bytes)
from .metrics import (EdgeReport, MetricReport, edge_report, grid_csv,
                      lightness, loe, metric_report, psnr, sobel_magnitude,
                      ssim)
from .noise import (FAMILIES, STREAM_ANALYSIS, STREAM_DATASET, STREAM_FORWARD,
                    STREAM_INIT, STREAM_SAMPLER, STREAM_TRAIN, NoiseKind,
                    RngStream, sample_noise)
from .schedule import (MAX_STEPS, MODES, Schedule, build_schedule,
                       default_t_mid)

__version__ = "0.1.0"
