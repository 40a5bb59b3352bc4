import copy

import numpy as np
import pytest
import yaml

from promforge.config import SamplingConfig, apply_overrides, config_from_dict, load_config


def test_defaults_validate():
    cfg = config_from_dict({})
    assert cfg.sampling.n_train == 10
    assert cfg.fe.n_elements == 40
    assert cfg.identification.method == "eed"


def test_shipped_desk_config_loads():
    cfg = load_config("configs/desk_study.yaml")
    assert cfg.sampling.n_train == 10
    assert cfg.sampling.n_validation == 3
    assert cfg.sampling.n_test == 3
    assert cfg.bounds().n_params == 2
    assert cfg.monitors == ("midspan_w",)


def test_eps_grid_shape():
    cfg = config_from_dict({"interpolation": {"eps_min": 0.01, "eps_max": 10.0, "eps_count": 50}})
    grid = cfg.eps_grid()
    assert grid.size == 50
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(10.0)


def test_sampling_role_gives_count_and_seed():
    s = config_from_dict({"sampling": {"n_validation": 5, "seed_validation": 7}}).sampling
    assert s.role("train") == (s.n_train, s.seed_train)
    assert s.role("validation") == (5, 7)
    assert s.role("test") == (s.n_test, s.seed_test)
    with pytest.raises(ValueError):
        SamplingConfig().role("bogus")


def test_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_dict({"sampling": {"n_train": 5, "bogus": 1}})
    with pytest.raises(ValueError):
        config_from_dict({"made_up_section": {}})


@pytest.mark.parametrize(
    "data, section",
    [({"bounds": {"P1": [5, 6], "p3": [0, 1]}}, "bounds"), ({"output": {"dir": "x"}}, "output")],
)
def test_rejects_unknown_bounds_and_output_keys(data, section):
    with pytest.raises(ValueError, match=f"unknown keys in section '{section}'"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "patch",
    [
        {"bounds": {"p1": [1.5, 0.75]}},
        {"sampling": {"n_train": 0}},
        {"fe": {"n_elements": 3}},
        {"fe": {"thickness": -1.0}},
        {"basis": {"companion": "prayer"}},
        {"pod": {"energy_modes": 1.5}},
        {"identification": {"method": "guesswork"}},
        {"interpolation": {"eps_min": 5.0, "eps_max": 1.0}},
        {"interpolation": {"error_metric": "vibes"}},
        {"load": {"t_pulse": 0.0}},
        {"integration": {"t_span": -1.0}},
        {"monitors": []},
    ],
)
def test_rejects_invalid_values(patch):
    with pytest.raises(ValueError):
        config_from_dict(patch)


@pytest.mark.parametrize("field, value", [("beta", 0.0), ("beta", -0.25), ("gamma", -1.0)])
def test_rejects_nonpositive_newmark_parameters(field, value):
    with pytest.raises(ValueError, match=f"integration.{field} must be positive"):
        config_from_dict({"integration": {field: value}})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"monitors": "midspan_w"}, "monitors"),
        ({"monitors": [True]}, "monitors"),
        ({"bounds": {"p1": 0.5}}, "bounds.p1"),
        ({"bounds": {"p2": [0.0, 0.25, 0.5]}}, "bounds.p2"),
        ({"bounds": {"p1": ["low", 1.5]}}, "bounds.p1"),
        ({"bounds": [[0.75, 1.5]]}, "bounds"),
        ({"fe": None}, "fe"),
        ({"sampling": 10}, "sampling"),
        ({"output": "out"}, "output"),
        ({"output": {"directory": None}}, "output.directory"),
        ({"sampling": {"n_train": 2.5}}, "sampling.n_train"),
        ({"sampling": {"n_train": "2.5"}}, "sampling.n_train"),
        ({"sampling": {"n_train": True}}, "sampling.n_train"),
        ({"integration": {"rom_steps_per_period": 99.5}}, "integration.rom_steps_per_period"),
        ({"damping": {"zeta": [0.01]}}, "damping.zeta"),
        ({"load": {"amplitude": "loud"}}, "load.amplitude"),
        ({"basis": {"companion": 3}}, "basis.companion"),
        ({"basis": {"dual_pairs": "yes"}}, "basis.dual_pairs"),
        ([["sampling", 10]], "config"),
    ],
)
def test_rejects_malformed_values_naming_the_key(data, key):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        config_from_dict(data)


def test_yaml_number_strings_keep_their_values():
    # YAML reads exponents without a sign as strings; they still parse
    cfg = config_from_dict(
        {"fe": {"n_elements": "4e1", "youngs_modulus": "7.0e10"}, "bounds": {"p1": ["5e-1", 1]}}
    )
    assert cfg.fe.n_elements == 40 and type(cfg.fe.n_elements) is int
    assert cfg.fe.youngs_modulus == 7.0e10
    assert cfg.bounds_p1 == (0.5, 1.0)


def test_overrides_scalars():
    raw = {"sampling": {"n_train": 10}}
    out = apply_overrides(raw, ["sampling.n_train=4", "fe.n_elements=16", "load.amplitude=12.5"])
    cfg = config_from_dict(out)
    assert cfg.sampling.n_train == 4
    assert cfg.fe.n_elements == 16
    assert cfg.load.amplitude == 12.5


def test_overrides_leave_input_untouched():
    raw = {"sampling": {"n_train": 10}, "fe": {"n_elements": 40}}
    before = copy.deepcopy(raw)
    out = apply_overrides(raw, ["sampling.n_train=4"])
    assert raw == before
    assert out["sampling"]["n_train"] == 4


def test_override_requires_assignment():
    with pytest.raises(ValueError):
        apply_overrides({}, ["sampling.n_train"])


def test_overrides_reject_a_non_mapping_document():
    with pytest.raises(ValueError, match="^config must be a mapping, got list$"):
        apply_overrides([1, 2], ["a.b=1"])


def test_to_dict_round_trip():
    cfg = config_from_dict({"basis": {"k_pairs": 5}, "monitors": ["midspan_w", 3]})
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_to_dict_is_yaml_and_json_clean():
    import json

    cfg = config_from_dict({})
    d = cfg.to_dict()
    json.dumps(d)
    yaml.safe_dump(d)
