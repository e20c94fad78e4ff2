"""Config resolution: defaults, file layer, override layer."""

import inspect
import json

import pytest

from vibecheck import composite, explainability, retention, sdt
from vibecheck.cli import _build_parser
from vibecheck.config import CORRECTIONS, ENV_CONFIG, VELOCITY_UNITS, RunConfig, resolve_config
from vibecheck.errors import ValidationError
from vibecheck.stats.power import PowerSpec


def test_defaults():
    config = resolve_config(None, {})
    assert config == RunConfig()
    assert config.k == 1.5
    assert config.delta == 1.0
    assert config.correction == "half-count"
    assert config.idle_gap == 120.0
    assert config.velocity_unit == "volume"
    assert config.allow_uncalibrated is False
    assert config.epsilon == 1e-9
    assert config.w1 == config.w2 == config.w3 == pytest.approx(1.0 / 3.0)
    assert config.gamma == 0.0
    assert config.trap_fraction == 0.5
    assert config.replicates == 20_000
    assert config.seed == 0


def test_file_layer_overrides_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 2.0, "seed": 99}))
    config = resolve_config(str(path), {})
    assert config.k == 2.0
    assert config.seed == 99
    assert config.delta == 1.0  # untouched default


def test_explicit_overrides_beat_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 2.0, "seed": 99}))
    config = resolve_config(str(path), {"k": 3.5})
    assert config.k == 3.5
    assert config.seed == 99


def test_none_overrides_are_skipped(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 99}))
    config = resolve_config(str(path), {"seed": None, "k": None})
    assert config.seed == 99
    assert config.k == 1.5


def test_env_var_names_fallback_file(tmp_path, monkeypatch):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"gamma": 0.25}))
    monkeypatch.setenv(ENV_CONFIG, str(path))
    assert resolve_config(None, {}).gamma == 0.25


def test_explicit_path_beats_env_var(tmp_path, monkeypatch):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"gamma": 0.25}))
    cli_file = tmp_path / "cli.json"
    cli_file.write_text(json.dumps({"gamma": 0.5}))
    monkeypatch.setenv(ENV_CONFIG, str(env_file))
    assert resolve_config(str(cli_file), {}).gamma == 0.5


def test_unknown_file_key_rejected_listing_known_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kk": 2.0}))
    with pytest.raises(ValidationError, match="unknown field 'kk'; known fields: ") as err:
        resolve_config(str(path), {})
    assert "trap_fraction" in str(err.value)


def test_unknown_override_rejected():
    with pytest.raises(ValidationError, match="unknown config override"):
        resolve_config(None, {"granularity": 3})


def test_file_values_are_cast(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"replicates": 30000.0, "k": 2}))
    config = resolve_config(str(path), {})
    assert config.replicates == 30000 and isinstance(config.replicates, int)
    assert config.k == 2.0 and isinstance(config.k, float)


def test_uncastable_value_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": "fast"}))
    with pytest.raises(ValidationError, match="bad value for 'k'"):
        resolve_config(str(path), {})


@pytest.mark.parametrize(
    "key, value",
    [
        ("allow_uncalibrated", "false"),
        ("allow_uncalibrated", 0),
        ("cohort_rounding", "false"),
        ("cohort_rounding", None),
        ("seed", 0.9),
        ("seed", True),
        ("seed", "7"),
        ("replicates", 2000.9),
        ("replicates", "20000"),
    ],
)
def test_scalars_are_not_coerced(tmp_path, key, value):
    # bool("false") is True and int(0.9) is 0: neither may pass silently.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ValidationError, match=f"bad value for {key!r}"):
        resolve_config(str(path), {})


def test_json_booleans_and_integral_numbers_are_accepted(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "allow_uncalibrated": False, "cohort_rounding": True,
        "seed": 7, "replicates": 2e4,
    }))
    config = resolve_config(str(path), {})
    assert config.allow_uncalibrated is False and config.cohort_rounding is True
    assert config.seed == 7 and isinstance(config.seed, int)
    assert config.replicates == 20_000 and isinstance(config.replicates, int)


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValidationError, match="JSON object"):
        resolve_config(str(path), {})


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{nope")
    with pytest.raises(ValidationError, match="not valid JSON"):
        resolve_config(str(path), {})


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError, match="cannot read config file"):
        resolve_config(str(tmp_path / "absent.json"), {})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"correction": "winsor"}, "unknown correction"),
        ({"velocity_unit": "tokens"}, "unknown velocity unit"),
        ({"idle_gap": 0.0}, "idle_gap"),
        ({"epsilon": -1e-9}, "epsilon"),
        ({"trap_fraction": 1.5}, "trap_fraction"),
        ({"seed": -1}, "seed must be a non-negative integer"),
    ],
)
def test_resolved_config_is_validated(overrides, message):
    with pytest.raises(ValidationError, match=message):
        resolve_config(None, overrides)


def test_to_dict_round_trips_every_field(tmp_path):
    config = resolve_config(None, {"seed": 7, "gamma": 0.1})
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(config.to_dict()))
    assert resolve_config(str(path), {}) == config


# --- the library and the command line take their defaults from RunConfig ------

_SETTING_DEFAULTS = [
    (sdt.m_ht, "k", "k"),
    (sdt.m_ht, "delta", "delta"),
    (sdt.rates, "correction", "correction"),
    (sdt.score_responses, "k", "k"),
    (sdt.score_responses, "delta", "delta"),
    (sdt.score_responses, "correction", "correction"),
    (retention.active_minutes, "idle_gap", "idle_gap"),
    (retention.velocity, "idle_gap", "idle_gap"),
    (retention.velocity, "unit", "velocity_unit"),
    (retention.calibrate_omega, "idle_gap", "idle_gap"),
    (retention.calibration_mean_score, "idle_gap", "idle_gap"),
    (retention.m_csr, "idle_gap", "idle_gap"),
    (retention.m_csr, "velocity_unit", "velocity_unit"),
    (explainability.e_gap, "epsilon", "epsilon"),
    (composite.classify_zone, "m_csr_threshold", "m_csr_threshold"),
    (composite.classify_zone, "e_gap_threshold", "e_gap_threshold"),
    (composite.classify_zone, "m_ht_cutoff", "m_ht_cutoff"),
    (composite.score_cohort, "m_csr_threshold", "m_csr_threshold"),
    (composite.score_cohort, "e_gap_threshold", "e_gap_threshold"),
    (composite.score_cohort, "m_ht_cutoff", "m_ht_cutoff"),
]


@pytest.mark.parametrize(
    "fn, parameter, setting", _SETTING_DEFAULTS,
    ids=[f"{fn.__module__}.{fn.__name__}.{p}" for fn, p, _ in _SETTING_DEFAULTS],
)
def test_library_default_is_the_run_config_default(fn, parameter, setting):
    default = inspect.signature(fn).parameters[parameter].default
    assert default == getattr(RunConfig(), setting)


def test_record_defaults_are_the_run_config_defaults():
    config = RunConfig()
    weights = composite.UtilityWeights()
    for name in weights._fields:
        assert getattr(weights, name) == getattr(config, name)
    assert PowerSpec._defaults["replicates"] == config.replicates


def test_option_choices_are_the_allowed_settings():
    commands = _build_parser()._subparsers._group_actions[0].choices
    sdt_options = commands["sdt"]._option_string_actions
    retention_options = commands["retention"]._option_string_actions
    assert sdt_options["--correction"].choices == CORRECTIONS
    assert retention_options["--velocity-unit"].choices == VELOCITY_UNITS
