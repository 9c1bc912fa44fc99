"""The sklearn estimator contract of ``MedLiteNetSegmenter``."""

import inspect

import numpy as np
import pytest

from medlitenet import estimator
from medlitenet.data import synth_sample
from medlitenet.errors import ConfigError
from medlitenet.estimator import MedLiteNetSegmenter, NotFittedError


@pytest.fixture(scope="module")
def data():
    samples = [synth_sample(i, 32) for i in range(5)]
    X = np.stack([s.image for s in samples])
    y = np.stack([s.mask for s in samples])
    return X, y


@pytest.fixture(scope="module")
def fitted(data):
    return MedLiteNetSegmenter(epochs=1, batch_size=2, accumulation=1).fit(*data)


def test_params_round_trip():
    est = MedLiteNetSegmenter(trans_dim=64, epochs=3)
    params = est.get_params()
    assert params["trans_dim"] == 64 and params["epochs"] == 3
    clone = MedLiteNetSegmenter(**params)
    assert clone.get_params() == params
    assert est.set_params(seed=7, use_tta=True) is est
    assert est.get_params() == {**params, "seed": 7, "use_tta": True}


def test_constructor_signature_lists_every_param():
    # sklearn's clone rebuilds an estimator from the keyword parameters of
    # its __init__; estimators compare and hash by identity
    sig = inspect.signature(MedLiteNetSegmenter)
    est = MedLiteNetSegmenter()
    assert list(sig.parameters) == list(est.get_params())
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in sig.parameters.values())
    assert est != MedLiteNetSegmenter() and est in {est}


def test_set_params_rejects_unknown_key():
    est = MedLiteNetSegmenter()
    with pytest.raises(ValueError, match="invalid parameter 'depth'"):
        est.set_params(depth=3)
    assert "depth" not in est.get_params()


def test_predict_before_fit_raises(data):
    est = MedLiteNetSegmenter()
    for method in (est.predict_proba, est.predict):
        with pytest.raises(NotFittedError, match="not fitted"):
            method(data[0])
    assert isinstance(NotFittedError("x"), (ValueError, AttributeError))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pixels_are_rejected(fitted, data, bad):
    X = data[0].copy()
    X[1, 2, 3, 4] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        MedLiteNetSegmenter(epochs=1).fit(X, data[1])
    for method in (fitted.predict_proba, fitted.predict):
        with pytest.raises(ValueError, match="X must be finite"):
            method(X)


def test_fit_checks_config_types_naming_the_key(data):
    with pytest.raises(ConfigError, match=r"model\.expansion must be an "
                                          r"integer, got 2\.5"):
        MedLiteNetSegmenter(expansion=2.5).fit(*data)
    with pytest.raises(ConfigError, match=r"train\.epochs must be an integer"):
        MedLiteNetSegmenter(epochs="1").fit(*data)


@pytest.mark.parametrize("key, value", [
    ("threshold", 1.5), ("threshold", -0.1), ("threshold", float("nan")),
    ("val_fraction", -3.0), ("val_fraction", 1.5), ("val_fraction", float("nan")),
])
def test_fit_rejects_an_out_of_range_argument_before_training(
        data, monkeypatch, key, value):
    def no_training(*args, **kwargs):
        pytest.fail("fit trained before it checked its arguments")

    monkeypatch.setattr(estimator, "fit", no_training)
    with pytest.raises(ValueError, match=f"{key} must lie in \\[0, 1\\]"):
        MedLiteNetSegmenter(epochs=1, **{key: value}).fit(*data)


@pytest.mark.parametrize("val_fraction", [0.9, 1.0])
def test_fit_keeps_one_training_image(data, val_fraction):
    X, y = data
    est = MedLiteNetSegmenter(epochs=1, batch_size=2, accumulation=1,
                              val_fraction=val_fraction).fit(X[:3], y[:3])
    train_row, val_row = est.history_
    assert (train_row["split"], val_row["split"]) == ("train", "val")
    assert np.isfinite(train_row["loss"]) and np.isfinite(val_row["loss"])


def test_fit_returns_self_with_fitted_state(fitted):
    assert {row["epoch"] for row in fitted.history_} == {0}
    assert 0.0 <= fitted.best_val_dice_ <= 1.0
    assert fitted.n_features_in_ == 3 * 32 * 32


def test_prediction_shapes(fitted, data):
    X, _ = data
    proba = fitted.predict_proba(X)
    assert proba.shape == (5, 1, 32, 32)
    assert proba.dtype == np.float32
    assert ((proba > 0) & (proba < 1)).all()
    masks = fitted.predict(X)
    assert masks.shape == (5, 32, 32)
    assert set(np.unique(masks)) <= {0, 1}
    assert fitted.predict(X[0]).shape == (1, 32, 32)
