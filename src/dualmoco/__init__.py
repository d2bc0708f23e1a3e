"""Dual momentum contrast at desk scale.

Aligns sentence representations from two token vocabularies into one metric
space using twin encoder towers, momentum-averaged key encoders, and large
FIFO negative queues, then evaluates the space with nearest-neighbor
retrieval, margin-based bitext mining, and rank-correlation scoring on
synthetic corpora with exact gold labels.
"""

from .datagen import (
    ConceptLexicon,
    MiningCorpus,
    NliTriple,
    ParallelCorpus,
    StsPair,
    gen_mining_corpus,
    gen_nli_triples,
    gen_parallel_corpus,
    gen_sts_pairs,
    make_lexicon,
)
from .encoder import (
    EncoderGrads,
    EncoderParams,
    Pooling,
    encode,
    encode_backward,
    encode_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import (
    MiningResult,
    Neighbors,
    f1,
    margin_score,
    mine_bitext,
    nn_search,
    retrieval_accuracy,
    search_threshold,
    sts_eval,
)
from .moco import (
    DualMocoState,
    LossValue,
    MemoryQueue,
    bidirectional_loss,
    enqueue_batch,
    info_nce,
    info_nce_query_grad,
    loss_and_gradients,
    momentum_update,
    new_state,
    softmax_entropy,
)
from .numerics import cosine_similarity, l2_normalize, spearman_correlation
from .trainer import (
    NliHead,
    TrainConfig,
    TrainResult,
    adamw_step,
    clip_gradients,
    lr_at,
    nli_forward_loss,
    train,
)

__version__ = "0.1.0"
