"""Speaker-attributed non-autoregressive speech recognition at desk scale.

A float64 autodiff engine, transformer blocks, an integrate-and-fire length
predictor, a cosine-attention speaker decoder with inventory augmentation,
serialized multi-speaker targets, composite training losses, scoring, and a
latency benchmark against a greedy autoregressive twin, all exercised on
synthetic multi-speaker sessions.
"""

from .bench import BenchResult, bench_rtf
from .cif import (FiringPlan, WeightPredictor, integrate_and_fire, mae_loss,
                  scale_weights)
from .data import (Dataset, Session, SynthSpec, generate_dataset,
                   generate_session, read_dataset, write_dataset)
from .errors import ConfigError, ContractError, ShapeError
from .losses import (LossBreakdown, LossWeights, ce_loss, composite_loss,
                     ctc_is_infeasible, ctc_loss, speaker_loss)
from .metrics import (EditCounts, RTFReport, SDCERReport, edit_align,
                      rtf_report, sd_cer)
from .model import (ArBaselineModel, ForwardTrace, Hypothesis, ModelConfig,
                    SaAsrModel, glancing_sample, load_checkpoint,
                    save_checkpoint)
from .nn import (AttentionConfig, CrossBlock, FeedForward, MultiHeadAttention,
                 layer_norm)
from .speaker import (CosineScores, SpeakerDecoder, SpeakerInventory,
                      SpeakerProfile, add_interfering, assign_speakers,
                      attention_weights, cosine_scores, fill_speakers,
                      project_query, weighted_profile)
from .tensor import Tensor, grad_check, no_grad, softmax
from .training import (EvalReport, RunManifest, TrainConfig, evaluate, train,
                       validation_ce)
from .tsot import (SerializedTarget, TimedToken, deserialize, serialize,
                   strip_separators)

__version__ = "0.1.0"
