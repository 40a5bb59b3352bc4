import copy
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
import yaml

from promforge.config import RunConfig, SamplingConfig, apply_overrides, config_from_dict, load_config

# every section of the YAML schema and its float-valued keys
SECTIONS = [f.name for f in dataclasses.fields(RunConfig) if f.default_factory is not dataclasses.MISSING]
FLOAT_KEYS = [
    f"{section}.{f.name}"
    for section in SECTIONS
    for f in dataclasses.fields(getattr(RunConfig(), section))
    if type(f.default) is float
]


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
    assert cfg.param_bounds[0] == (0.5, 1.0)


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


@pytest.mark.parametrize("document", ["[]", "0", "''", "false"])
@pytest.mark.parametrize(
    "read",
    [config_from_dict, lambda data: apply_overrides(data, [])],
    ids=["config_from_dict", "apply_overrides"],
)
def test_a_falsy_non_mapping_document_is_no_default_study(document, read):
    data = yaml.safe_load(document)
    kind = type(data).__name__
    with pytest.raises(ValueError, match=f"^config must be a mapping, got {kind}$"):
        read(data)


def test_an_empty_document_means_the_defaults():
    assert yaml.safe_load("") is None
    assert config_from_dict(None) == config_from_dict({})
    assert apply_overrides(None, ["sampling.n_train=4"]) == {"sampling": {"n_train": 4}}


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


def test_desk_config_dict_is_pinned():
    # containers store this dict as sorted-key JSON; a schema change that
    # moves a key or a value moves every container's bytes
    d = load_config("configs/desk_study.yaml").to_dict()
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == "35322fdc5859dac925c35992493c467e64abb3ce10779ba3e90f10cf2186a47e"


def _digest(cfg: RunConfig) -> str:
    return hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_an_integer_for_a_float_key_is_stored_as_a_float(key):
    # how a number is spelled must not move the bytes of a container
    section, name = key.split(".")
    value = max(1, round(getattr(getattr(RunConfig(), section), name)))
    spelled_int = config_from_dict(apply_overrides({}, [f"{key}={value}"]))
    spelled_float = config_from_dict(apply_overrides({}, [f"{key}={float(value)}"]))
    assert type(getattr(getattr(spelled_int, section), name)) is float
    assert _digest(spelled_int) == _digest(spelled_float)
    with pytest.raises(ValueError, match=f"^{key} must be a number, got True$"):
        config_from_dict(apply_overrides({}, [f"{key}=true"]))


def test_integer_spellings_of_the_desk_values_keep_its_digest():
    desk = load_config("configs/desk_study.yaml")
    spelled = load_config("configs/desk_study.yaml", ["fe.density=2700", "load.amplitude=55"])
    assert _digest(spelled) == _digest(desk)


@pytest.mark.parametrize(
    "fe, message",
    [({"thickness": -1.0}, "fe.thickness must be positive"), ({"n_elements": 3}, "fe.n_elements must be >= 4")],
)
def test_the_beam_rules_are_reported_under_the_fe_section(fe, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        config_from_dict({"fe": fe})


def test_a_replaced_config_is_validated_too():
    # an unvalidated method or companion would fall through to the other route
    cfg = config_from_dict({})
    with pytest.raises(ValueError) as info:
        dataclasses.replace(
            cfg,
            identification=dataclasses.replace(cfg.identification, method="EED"),
            basis=dataclasses.replace(cfg.basis, companion="SMD"),
        )
    assert "identification.method" in str(info.value)
    assert "basis.companion" in str(info.value)
    with pytest.raises(ValueError, match="one \\[min, max\\] pair for each of"):
        dataclasses.replace(cfg, param_bounds=cfg.param_bounds[:1])


def test_an_unknown_monitor_name_is_rejected_at_load():
    with pytest.raises(ValueError, match="unknown monitors \\['midspan_x'\\]"):
        config_from_dict({"monitors": ["midspan_x"]})
    assert config_from_dict({"monitors": ["quarter_u", 5]}).monitors == ("quarter_u", 5)


def test_yaml_round_trip_covers_every_section(tmp_path):
    changed = [
        "bounds.p2=[0.1, 0.4]",
        "sampling.seed_test=7",
        "fe.density=2500.0",
        "basis.k_pairs=4",
        "pod.energy_modes=0.99",
        "identification.method=ed",
        "interpolation.kernel=gaussian",
        "damping.zeta=0.02",
        "load.t_pulse=0.01",
        "integration.gamma=0.6",
        "output.directory=elsewhere",
        "monitors=[midspan_w, 3]",
    ]
    assert [re.split("[.=]", item)[0] for item in changed] == ["bounds", *SECTIONS, "monitors"]
    cfg = config_from_dict(apply_overrides({}, changed))
    assert cfg.output.directory == "elsewhere"
    default = config_from_dict({})
    assert all(getattr(cfg, name) != getattr(default, name) for name in SECTIONS)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()), encoding="utf-8")
    assert load_config(path) == cfg
    assert list(cfg.to_dict()) == ["bounds", *SECTIONS, "monitors"]


@pytest.mark.parametrize("raw", [".nan", ".inf", "-.inf", "'nan'"])
@pytest.mark.parametrize("key", FLOAT_KEYS + ["bounds.p1", "bounds.p2"])
def test_rejects_non_finite_numbers_naming_the_key(key, raw):
    value = f"[{raw}, 1.5]" if key.startswith("bounds") else raw
    with pytest.raises(ValueError, match=f"^{key} must be a finite number, got -?(nan|inf)$"):
        config_from_dict(apply_overrides({}, [f"{key}={value}"]))


@pytest.mark.parametrize("role", ["train", "validation", "test"])
def test_rejects_a_negative_seed_naming_the_key(role):
    with pytest.raises(ValueError, match=f"sampling.seed_{role} must be >= 0"):
        config_from_dict({"sampling": {f"seed_{role}": -1}})
