"""Small CPU deep-learning engine for 8-bucket age classification.

A sequential conv/pool/fc network with a banded-GEMM convolution core, SGD with
momentum and plateau learning-rate decay, a frozen-trunk fine-tuning path,
3-crop averaged prediction, exact / 1-off accuracy reporting, and a compact
binary checkpoint format.
"""

from .checkpoint import import_trunk, load, save
from .data import (AGE_LABELS, NUM_CLASSES, DatasetManifest, ManifestRecord,
                   Preprocessing, batches, label_of, load_manifest,
                   random_crop_224, read_ppm, write_ppm)
from .errors import (ConfigError, EngineError, FormatError, InputError,
                     IntegrityError, LabelError, ParameterError, ParseError,
                     ShapeError, StateError)
from .metrics import (EvalReport, confusion, evaluate, exact_accuracy,
                      one_off_accuracy, render_csv, render_report,
                      row_normalize)
from .network import (NetworkSpec, build_profile, forward, backward,
                      head_replace, infer_shapes, init_params, make_mask,
                      param_shapes, replace_head_spec)
from .optim import (OptState, SgdConfig, init_state, plateau_update, sgd_step,
                    train_epoch)
from .predict import (CropTriple, average_probabilities, predict_proba,
                      three_crops)
from .tensor import DTYPE, Rng, argmax, gaussian_fill, pad2d

__version__ = "0.1.0"

__all__ = [
    "AGE_LABELS", "NUM_CLASSES", "DTYPE", "__version__",
    "Rng", "argmax", "gaussian_fill", "pad2d",
    "NetworkSpec", "build_profile", "infer_shapes", "init_params",
    "param_shapes", "make_mask", "head_replace",
    "replace_head_spec", "forward", "backward",
    "SgdConfig", "OptState", "init_state", "sgd_step", "plateau_update",
    "train_epoch",
    "DatasetManifest", "ManifestRecord", "Preprocessing", "label_of",
    "load_manifest", "batches", "read_ppm", "write_ppm",
    "random_crop_224",
    "CropTriple", "three_crops", "average_probabilities", "predict_proba",
    "EvalReport", "confusion", "exact_accuracy", "one_off_accuracy",
    "row_normalize", "evaluate", "render_report", "render_csv",
    "save", "load", "import_trunk",
    "EngineError", "ShapeError", "ParameterError", "ConfigError",
    "ParseError", "LabelError", "FormatError", "IntegrityError",
    "StateError", "InputError",
]
