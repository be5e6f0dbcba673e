"""Basic-level-first curriculum training toolkit for convolutional classifiers.

Train a classifier on coarse (basic-level) categories first, transplant the
trained output weights onto the fine-grained (subordinate) task, continue
training, and measure what the curriculum buys you against matched controls,
all at a desk scale that runs in minutes on a CPU.
"""

__version__ = "0.1.0"

# cli is left out: ``python -m hiercurric.cli`` must find it not yet imported
from . import (benchmark, config, curriculum, dataprep, files, model,
               nnkernel, taxonomy, transfer)
from .curriculum import (DataBundle, Regime, RunReport, TrainConfig,
                         checkpoint_sweep, run_regime, topk_accuracy,
                         train_phase)
from .dataprep import (DatasetManifest, SynthSpec, cap_per_category,
                       find_overlaps, generate_synthetic,
                       normalized_correlation, random_class_splits)
from .errors import NumericFault, ParseError, ValidationError, ZeroVarianceError
from .model import (Checkpoint, ModelSpec, build_model, forward_eval,
                    load_checkpoint, replace_head, save_checkpoint,
                    set_layer_lr_mults)
from .nnkernel import ParamEntry, SgdConfig, lr_schedule, sgd_step, softmax_xent
from .taxonomy import (LabelMap, SynsetGraph, allocate_descendants,
                       category_height_histogram, parse_synset_file,
                       validate_basic_marks)
from .transfer import (ProbeResult, ProbeSpec, evaluate_probe,
                       extract_features, mean_class_recall,
                       train_softmax_probe)
