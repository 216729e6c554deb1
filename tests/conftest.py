import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from rtcast import dataio, features, gbm

# Under CI a failing property test also prints the blob that replays its
# example with @reproduce_failure, so a failure on a CI-only numpy reproduces.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

FULL_GROUPS = frozenset({"IOTS-MVA", "MVART", "Holiday"})


@pytest.fixture
def worker_may_fail():
    """Lets this test's training workers exit nonzero. The list of their exit
    codes, in the order ``train`` reaps them."""
    return []


@pytest.fixture(autouse=True)
def _training_workers_exit_cleanly(request):
    """A training worker that exits nonzero fails the test, unless the test
    requests ``worker_may_fail``: the parent grows a failed worker's trees
    alone, so the model is right and nothing else shows the failure."""
    codes = (request.getfixturevalue("worker_may_fail")
             if "worker_may_fail" in request.fixturenames else None)
    close = gbm._Worker.close

    def checked(self):
        code = close(self)
        if codes is not None:
            codes.append(code)
        elif code:
            pytest.fail(f"a training worker exited with status {code}")
        return code

    with mock.patch.object(gbm._Worker, "close", checked):
        yield


@pytest.fixture(scope="session")
def synth_table():
    """30 days of seed-42 synthetic data (4320 rows at 10-minute spacing)."""
    return dataio.synthesize(dataio.SynthConfig(seed=42, n_days=30))


@pytest.fixture(scope="session")
def synth_splits(synth_table):
    n = len(synth_table)
    i1, i2 = int(n * 0.6), int(n * 0.8)
    return (
        synth_table.row_slice(0, i1),
        synth_table.row_slice(i1, i2),
        synth_table.row_slice(i2, n),
    )


@pytest.fixture(scope="session")
def engineering():
    return features.EngineeringConfig()


@pytest.fixture(scope="session")
def train_matrix(synth_splits, engineering):
    return features.build_design_matrix(synth_splits[0], engineering, FULL_GROUPS)


@pytest.fixture(scope="session")
def val_matrix(synth_splits, engineering):
    return features.build_design_matrix(synth_splits[1], engineering, FULL_GROUPS)


@pytest.fixture(scope="session")
def small_model(train_matrix):
    """A quick ensemble used by forecast/explain/spectrum tests."""
    return gbm.train(train_matrix, gbm.Hyperparams(max_depth=4, n_trees=25))


def make_matrix(rows, names, target=None, start=0, step=600):
    """Build a FeatureMatrix around plain arrays for unit tests."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if target is None:
        target = np.zeros(n)
    ts = start + step * np.arange(n, dtype=np.int64)
    return features.FeatureMatrix(
        feature_names=tuple(names),
        rows=rows,
        target=np.asarray(target, dtype=np.float64),
        row_timestamps=ts,
    )
