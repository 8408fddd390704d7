"""Dynamic spatial filtering for noisy multichannel time series.

Attention module that predicts per-window spatial filters from
second-order channel statistics, plus the corruption augmentation,
interpolation ablations, baselines and the robustness sweep harness.
"""

from .attention import (DsfConfig, DsfModule, channel_contribution,
                        dsf_param_count, soft_threshold)
from .corruption import (CorruptionSpec, augment_batch, corrupt_recording,
                         corrupt_window, corruption_fraction, psd_slope,
                         sample_mask)
from .harness import (DeepModel, ExperimentConfig, FeatureModel, ResultRow,
                      balanced_accuracy, run_sweep, train_deep_model)
from .interp import InterpModule, dynamic_omega
from .linalg import (matrix_exp_eig, matrix_log_eig, matrix_log_taylor,
                     oas_shrink, sample_covariance, sym_eig, vec_upper)
from .nn import ParamStore, ShallowNet, TrainConfig, adamw_step, cosine_lr
from .spatial import phi_logm_cov, phi_logvar
from .synth import (Dataset, Recording, SynthConfig, generate_dataset,
                    load_dataset, save_dataset, split_dataset)

__version__ = "0.1.0"
