import numpy as np
import pytest

from coinseer import lstm


@pytest.fixture
def float64_training(monkeypatch):
    """Train in float64, the dtype every digest and bitwise oracle before
    float32 training was recorded with, so that each still reproduces."""
    monkeypatch.setattr(lstm, "_TRAINING_DTYPE", np.float64)
