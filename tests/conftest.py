import numpy as np
import pytest

from netactive.dataset import DataPool, Normalizer, Sample
from netactive.loop import LoopConfig, _LoopState


@pytest.fixture
def fixed_model_state():
    """Build a loop state whose model is exactly `params`, reporting in label units.

    The normalizer is the identity, the label scale is (0, 1) and every
    labeled sample is held out, so state.rmse() and state.aleatoric() are
    the plain RMSE on `test` and mean squared residual on `labeled`."""

    def build(params, labeled, test):
        (x_lab, y_lab), (x_test, y_test) = labeled, test
        rows = list(zip(x_lab, y_lab)) + list(zip(x_test, y_test))
        samples = [Sample(id=i, features=x, label=y) for i, (x, y) in enumerate(rows)]
        n_lab = len(x_lab)
        pool = DataPool(
            samples, labeled=range(n_lab), unlabeled=[], test=range(n_lab, len(samples)),
            normalizer=Normalizer(np.zeros(params.spec.n_inputs), np.ones(params.spec.n_inputs)),
        )
        state = _LoopState(LoopConfig(spec=params.spec), pool, master_seed=0)
        state.params = params
        state.label_mean, state.label_std = 0.0, 1.0
        state.val_ids = sorted(pool.labeled)
        return state

    return build
