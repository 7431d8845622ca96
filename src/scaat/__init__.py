"""Saliency-constrained adaptive adversarial training, desk scale.

Train small image classifiers so their gradient saliency maps become
sparse and faithful, and measure that with perturbation-based metrics.
"""

from .adversarial import AdvConfig, Perturbation, fgsm_masked, kl_div, pgd_masked
from .autodiff import Tensor, backward_grad
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DataConfig, RunConfig, load_run_config, save_run_config
from .data import Dataset, generate_half_informative, load_dataset
from .metrics import (
    EvalProtocol,
    MetricsReport,
    PerturbationCurve,
    aopc,
    compressed_size,
    evaluate_model,
    gini_index,
    perturbation_curve,
    saliency_entropy,
)
from .models import ModelSpec, ParamSet, forward_eval, init_model, predict_proba
from .saliency import (
    SaliencyMap,
    integrated_gradients,
    lowest,
    region_average,
    smooth_grad,
    vanilla_gsmap,
)
from .training import QState, TrainConfig, TrainResult, scaat_train, update_q

__version__ = "0.1.0"
