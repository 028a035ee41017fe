import numpy as np
import pytest

from netactive.acquisition import Budget
from netactive.dataset import DataPool, Normalizer, new_corpus
from netactive.loop import LoopConfig, PoolOracle, _LoopState


@pytest.fixture
def fixed_model_state():
    """Build a loop state whose model is exactly `params`, reporting in label units.

    The normalizer is the identity, the label scale is (0, 1) and every
    labeled sample is held out, so state.rmse() and state.aleatoric() are
    the plain RMSE on `test` and mean squared residual on `labeled`."""

    def build(params, labeled, test):
        (x_lab, y_lab), (x_test, y_test) = labeled, test
        corpus = new_corpus(len(x_lab) + len(x_test), params.spec.n_inputs)
        corpus.features = np.concatenate([x_lab, x_test])
        corpus.label = np.concatenate([y_lab, y_test])
        n_lab = len(x_lab)
        pool = DataPool(
            corpus, labeled=range(n_lab), unlabeled=[], test=range(n_lab, len(corpus)),
            normalizer=Normalizer(np.zeros(params.spec.n_inputs), np.ones(params.spec.n_inputs)),
        )
        state = _LoopState(LoopConfig(spec=params.spec), pool, PoolOracle(pool, Budget(total=1.0)),
                           master_seed=0)
        state.params = params
        state.label_mean, state.label_std = 0.0, 1.0
        state.val_ids = sorted(pool.labeled)
        return state

    return build
