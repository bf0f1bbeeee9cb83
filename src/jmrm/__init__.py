"""Few-shot joint intent classification and slot filling.

A prototype-based joint model over (intent, slot sequence) pairs: support
sets yield per-class prototypes, an intent-slot relation mask, and a BIO
transition mask; decoding and the training loss use exact inference over
the masked lattice.  Domain-specific relational knowledge lives entirely
in the support-derived masks, so only token semantics transfer across
domains.
"""

from .core import (
    Episode,
    LabelSpace,
    LabelMismatch,
    LengthMismatch,
    MalformedInput,
    MalformedLabel,
    Sample,
    load_episode_file,
    parse_episodes,
    save_episode_file,
    serialize_episodes,
    validate_sample,
)
from .encoder import (
    Encoder,
    EncoderConfig,
    EncoderParams,
    FrozenEncoder,
    encode_tokens,
    encoder_backward,
    init_encoder,
    load_encoder,
    save_encoder,
)
from .episodes import (
    Corpus,
    InsufficientCorpus,
    SynthSpec,
    build_episode,
    build_support_set,
    generate_synthetic,
    load_corpus_file,
    parse_corpora,
    save_corpus_file,
    serialize_corpora,
)
from .lattice import (
    InfeasibleGold,
    InfeasibleLattice,
    JointPosterior,
    JointScoreInputs,
    NonFiniteScores,
    joint_score,
    log_partition,
    loss_gradients,
    nll_loss,
    viterbi_decode,
)
from .masks import (
    RelationMask,
    TransitionMask,
    apply_relation_mask,
    build_relation_mask,
    build_transition_mask,
)
from .metrics import MetricsSummary, score
from .protonet import (
    DegenerateVector,
    Emissions,
    Prototypes,
    compute_emissions,
    compute_prototypes,
)
from .trainer import (
    RunConfig,
    TrainingDiverged,
    adam_step,
    compute_loss,
    evaluate,
    predict_episode,
    train,
)

__version__ = "0.1.0"
