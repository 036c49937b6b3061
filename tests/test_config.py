import json
import math

import pytest

from vanetcov import NetworkConfig, ValidationError, load_config, validate

REF_KWARGS = dict(lambda_l=5.0, mu=5.0, lambda_b=5.0, lambda_u=200.0, rho=0.05,
                  alpha=3.0, p_b=1.0, p_v=1.0, epsilon=1.0, w_s=0.5, w_d=0.5)


def test_reference_config_is_valid():
    cfg = NetworkConfig(**REF_KWARGS)
    assert validate(cfg) is cfg


def test_validate_is_idempotent():
    cfg = validate(NetworkConfig(**REF_KWARGS))
    assert validate(validate(cfg)) is cfg


def test_alpha_must_exceed_two():
    cfg = NetworkConfig(**{**REF_KWARGS, "alpha": 2.0})
    with pytest.raises(ValidationError, match="alpha must exceed 2"):
        validate(cfg)


def test_user_density_must_exceed_bs_density():
    cfg = NetworkConfig(**{**REF_KWARGS, "lambda_u": 1.0, "lambda_b": 5.0})
    with pytest.raises(ValidationError, match="lambda_u must exceed lambda_b"):
        validate(cfg)


@pytest.mark.parametrize("field,value,msg", [
    ("lambda_l", -1.0, "lambda_l must be nonnegative"),
    ("mu", -0.5, "mu must be nonnegative"),
    ("lambda_b", 0.0, "lambda_b must be positive"),
    ("rho", -0.01, "rho must be nonnegative"),
    ("p_b", 0.0, "p_b must be positive"),
    ("p_v", -2.0, "p_v must be positive"),
    ("w_s", -0.1, "w_s must be nonnegative"),
    ("alpha", math.inf, "alpha must be finite"),
])
def test_invariant_messages(field, value, msg):
    cfg = NetworkConfig(**{**REF_KWARGS, field: value})
    with pytest.raises(ValidationError, match=msg):
        validate(cfg)


def test_roadless_degenerate_configs_allowed():
    validate(NetworkConfig(**{**REF_KWARGS, "lambda_l": 0.0, "mu": 0.0}))
    validate(NetworkConfig(**{**REF_KWARGS, "mu": 0.0}))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(REF_KWARGS))
    cfg = load_config(path)
    assert cfg == validate(NetworkConfig(**REF_KWARGS))


def test_load_config_defaults_weights(tmp_path):
    doc = dict(REF_KWARGS)
    doc.pop("w_s")
    doc.pop("w_d")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.w_s == 0.5 and cfg.w_d == 0.5


def test_load_config_rejects_unknown_keys(tmp_path):
    doc = {**REF_KWARGS, "lambda_1": 3.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="unknown config keys: lambda_1"):
        load_config(path)


def test_load_config_rejects_missing_keys(tmp_path):
    doc = dict(REF_KWARGS)
    doc.pop("rho")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="missing config keys: rho"):
        load_config(path)


def test_load_config_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(REF_KWARGS)[:-1])
    with pytest.raises(ValidationError, match="config file is not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("value", ["5", True, "x", None, [1], {"v": 1}],
                         ids=["numeric-string", "true", "string", "null", "list", "object"])
def test_load_config_rejects_values_that_are_not_json_numbers(tmp_path, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**REF_KWARGS, "lambda_l": value}))
    with pytest.raises(ValidationError, match="^lambda_l must be a real number$"):
        load_config(path)


def test_load_config_rejects_an_integer_past_the_float_range(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**REF_KWARGS, "mu": 10 ** 400}))
    with pytest.raises(ValidationError, match="^mu must be finite$"):
        load_config(path)
