"""Cost-aware active learning for network telemetry regression."""

from .acquisition import (
    AcquisitionDecision,
    AcquisitionInputs,
    Budget,
    BudgetError,
    BudgetExhausted,
    CollectPolicy,
    CollectRegion,
    decide_acquisition,
    hybrid_score,
    random_select,
    rank_uncertainty,
    select_core_set,
)
from .bayesian import (
    Committee,
    committee_train,
    mc_predict,
)
from .dataset import (
    DataPool,
    LoadResult,
    Normalizer,
    Sample,
    fit_normalizer,
    load_csv,
    split_pool,
)
from .loop import (
    CurveRow,
    LearningCurve,
    LoopConfig,
    OracleError,
    PoolOracle,
    StreamPolicy,
    SynthesisPolicy,
    TwinOracle,
    run_pool_loop,
    run_stream_loop,
    run_synthesis_loop,
)
from .neural import (
    AdamState,
    NetworkParams,
    NetworkSpec,
    TrainHyper,
    adam_step,
    backward,
    forward,
    init_params,
    load_params,
    predict,
    save_params,
    train,
)
from .synth import (
    GaussianMixture,
    TwinWorld,
    fit_gmm,
    generate_synthetic_dataset,
    sample_gmm,
    twin_label,
)

__version__ = "0.1.0"
