"""Small, fast neural-transducer decoders with desk-scale training.

Public surface re-exported here; see README for the CLI and file formats.
"""

from .config import (
    CONCAT_2EMB,
    LSTM,
    PRESET_NAMES,
    REDUCED,
    STATELESS_1EMB,
    VARIANTS,
    DecoderConfig,
    preset,
)
from .decoding import (
    GreedyResult,
    Hypothesis,
    LookupTable,
    beam_decode,
    convert_to_lookup,
    greedy_decode,
)
from .embr import EmbrParams, NBestList, RiskResult, edit_distance, embr_risk
from .lattice import LossResult, TransducerLattice, transducer_loss
from .mathops import layer_norm, log_softmax, sigmoid, swish
from .model_io import load, load_lookup, read_archive, save, save_lookup
from .nets import (
    embed,
    joint_forward,
    output_logits,
    predict_multi_head,
    predict_single_head,
    prediction_forward,
)
from .rng import SeededRng
from .toy import ToyTaskSpec, Utterance, make_toy_dataset, toy_encode
from .train import Hyperparams, embr_phase, train
from .weights import (
    EncoderStub,
    LstmLayer,
    ModelWeights,
    init_weights,
    param_count,
    step_flops,
    tied_savings,
    trainable_tensors,
)

__version__ = "0.1.0"
