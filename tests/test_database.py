import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promforge.cli import main as cli_main
from promforge.config import config_from_dict
from promforge.database import (
    BenchmarkReport,
    load_database,
    load_report,
    read_container,
    save_database,
    save_report,
    write_container,
)
from promforge.errors import CorruptFileError, FormatVersionError
from promforge.pipeline import build_companion_database, build_database, fit_prom, run_benchmark


SMALL = {
    "sampling": {"n_train": 4, "n_validation": 2, "n_test": 2},
    "fe": {"n_elements": 12},
    "basis": {"n_modes": 4, "f_max": 250.0, "k_pairs": 2},
    "pod": {"energy_modes": 0.9999, "energy_companions": 0.9999},
    "interpolation": {"eps_count": 8},
    "integration": {"t_span": 0.06},
}


@pytest.fixture(scope="module")
def small_db():
    cfg = config_from_dict(dict(SMALL))
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    return fit_prom(train, val, cfg), cfg


# ----------------------------------------------------------------------
# raw container
# ----------------------------------------------------------------------
def test_container_round_trip(tmp_path):
    path = tmp_path / "x.bin"
    arrays = {
        "a": np.arange(12.0).reshape(3, 4),
        "b": np.array([1, 2, 3], dtype=np.int64),
    }
    meta = {"hello": [1, 2.5, "three"], "nested": {"k": True}}
    write_container(path, "test_kind", meta, arrays)
    kind, meta2, arrays2 = read_container(path)
    assert kind == "test_kind"
    assert meta2 == meta
    np.testing.assert_array_equal(arrays2["a"], arrays["a"])
    np.testing.assert_array_equal(arrays2["b"], arrays["b"])
    assert arrays2["b"].dtype == np.int64


def test_loaded_arrays_are_writeable_copies(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, "k", {}, {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(4)})
    _, _, first = read_container(path)
    for arr in first.values():
        assert arr.flags.writeable and arr.flags.owndata
        arr[...] = -1
    _, _, second = read_container(path)
    np.testing.assert_array_equal(second["a"], np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(second["b"], np.arange(4))


def test_container_write_is_deterministic(tmp_path):
    arrays = {"z": np.linspace(0, 1, 7), "a": np.eye(3)}
    meta = {"b": 1, "a": 2}
    write_container(tmp_path / "one.bin", "k", meta, arrays)
    write_container(tmp_path / "two.bin", "k", meta, arrays)
    assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMINE!" + b"\x00" * 32)
    with pytest.raises(CorruptFileError):
        read_container(path)


def test_container_rejects_truncation(tmp_path):
    path = tmp_path / "t.bin"
    write_container(path, "k", {}, {"a": np.arange(100.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-50])
    with pytest.raises(CorruptFileError):
        read_container(path)


def test_container_rejects_payload_tamper(tmp_path):
    path = tmp_path / "t.bin"
    write_container(path, "k", {}, {"a": np.arange(10.0)})
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        read_container(path)


def test_container_rejects_wrong_version(tmp_path):
    path = tmp_path / "t.bin"
    write_container(path, "k", {}, {"a": np.arange(4.0)})
    blob = path.read_bytes()
    patched = blob.replace(b'"format_version":1', b'"format_version":9')
    n = int.from_bytes(blob[8:16], "little")
    # keep the manifest length consistent after patching
    assert len(patched) == len(blob)
    path.write_bytes(patched)
    with pytest.raises(FormatVersionError):
        read_container(path)


# ----------------------------------------------------------------------
# database round trip
# ----------------------------------------------------------------------
def test_database_save_load_save_byte_identical(tmp_path, small_db):
    db, _ = small_db
    p1, p2 = tmp_path / "a.promdb", tmp_path / "b.promdb"
    save_database(db, p1)
    again = load_database(p1)
    save_database(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_database_round_trip_exact_values(tmp_path, small_db):
    db, _ = small_db
    path = tmp_path / "db.promdb"
    save_database(db, path)
    back = load_database(path)
    assert back.role == db.role
    assert back.config == db.config
    np.testing.assert_array_equal(back.points, db.points)
    for a, b in zip(back.roms, db.roms):
        np.testing.assert_array_equal(a.basis, b.basis)
        np.testing.assert_array_equal(a.k1_diag, b.k1_diag)
        np.testing.assert_array_equal(a.tensors.k2_unique, b.tensors.k2_unique)
        np.testing.assert_array_equal(a.tensors.k3_unique, b.tensors.k3_unique)
        assert a.alpha == b.alpha and a.beta == b.beta
        assert a.tensors.eval_count == b.tensors.eval_count
    # the surrogate round-trips exactly, into column-major tables that each
    # loaded weight matrix views
    np.testing.assert_array_equal(back.prom.centers, db.prom.centers)
    assert back.prom.kind == db.prom.kind
    assert back.prom.eps == db.prom.eps and back.prom.condition == db.prom.condition
    for name, weights in db.prom.weights.items():
        np.testing.assert_array_equal(back.prom.weights[name], weights)
        np.testing.assert_array_equal(back.prom.offset[name], db.prom.offset[name])
    for _, names, _, table in back.prom.tables:
        assert table.flags.f_contiguous
        for name in names:
            assert np.shares_memory(back.prom.weights[name], table), name
    np.testing.assert_array_equal(back.validation.eps_grid, db.validation.eps_grid)
    assert back.validation.selected == db.validation.selected


def test_prom_bytes_do_not_depend_on_weight_layout(tmp_path, small_db):
    db, _ = small_db
    fortran, c_order = tmp_path / "f.promdb", tmp_path / "c.promdb"
    save_database(db, fortran)
    c_db = load_database(fortran)
    for name, weights in c_db.prom.weights.items():
        # bypasses the constructor, which would store the weights column-major again
        c_db.prom.weights[name] = np.ascontiguousarray(weights)
    assert not c_db.prom.weights["k3"].flags.f_contiguous
    save_database(c_db, c_order)
    assert fortran.read_bytes() == c_order.read_bytes()


def test_database_wrong_kind_rejected(tmp_path, small_db):
    db, cfg = small_db
    path = tmp_path / "r.bin"
    write_container(path, "benchmark_report", {"n_points": 0, "model_kinds": []}, {})
    with pytest.raises(CorruptFileError):
        load_database(path)


# ----------------------------------------------------------------------
# benchmark report round trip
# ----------------------------------------------------------------------
def test_report_round_trip(tmp_path):
    hist = {
        "hfm": {"time": np.linspace(0, 1, 5), "traces": np.arange(10.0).reshape(5, 2)},
        "linear": {"time": np.linspace(0, 1, 3), "traces": np.ones((3, 2))},
    }
    report = BenchmarkReport(
        test_points=np.array([[0.2, 0.8]]),
        physical_points=np.array([[1.0, 0.4]]),
        monitors=["midspan_w", "quarter_w"],
        histories=[hist],
        errors=[{"linear": 0.5}],
        periods=[{"hfm": 0.02, "linear": 0.019}],
        failures=[{}],
        closest_indices=[2],
        eps_table={"k1": 0.5},
        eval_counts={"identification_per_sample": [14]},
        timings=[{"hfm": 1.0}],
    )
    path = tmp_path / "r.promdb"
    save_report(report, path)
    back = load_report(path)
    assert back.monitors == report.monitors
    assert back.errors == report.errors
    assert back.closest_indices == report.closest_indices
    np.testing.assert_array_equal(back.histories[0]["hfm"]["traces"], hist["hfm"]["traces"])
    assert back.timings == []  # wall clock never persists


# ----------------------------------------------------------------------
# malformed and damaged containers
# ----------------------------------------------------------------------
def _rewrite_manifest(path, edit):
    """Replace the manifest by edit(manifest), keeping the length field consistent."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    raw = json.dumps(edit(json.loads(blob[16 : 16 + n]))).encode("utf-8")
    path.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])


def _edit_first_entry(**changes):
    def edit(manifest):
        manifest["arrays"][0].update(changes)
        return manifest

    return edit


def _drop_k1_diags(path):
    kind, meta, arrays = read_container(path)
    del arrays["k1_diags"]
    write_container(path, kind, meta, arrays)


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda p: _rewrite_manifest(p, _edit_first_entry(shape=[1])), id="shape"),
        pytest.param(lambda p: _rewrite_manifest(p, _edit_first_entry(dtype="float32")), id="dtype"),
        pytest.param(lambda p: _rewrite_manifest(p, _edit_first_entry(offset=-8)), id="offset"),
        # a negative count makes np.frombuffer read the rest of the payload
        pytest.param(
            lambda p: _rewrite_manifest(p, _edit_first_entry(shape=[-1], nbytes=-8)),
            id="negative-size",
        ),
        pytest.param(
            lambda p: _rewrite_manifest(p, lambda m: {k: v for k, v in m.items() if k != "meta"}),
            id="missing-key",
        ),
        pytest.param(lambda p: _rewrite_manifest(p, lambda m: [m]), id="list-manifest"),
        pytest.param(_drop_k1_diags, id="missing-array"),
    ],
)
def test_malformed_container_raises_corrupt(tmp_path, small_db, damage):
    path = tmp_path / "prom.promdb"
    save_database(small_db[0], path)
    damage(path)
    with pytest.raises(CorruptFileError):
        load_database(path)


@pytest.mark.parametrize("field, change", [("m", -1), ("n", 1)])
def test_surrogate_sizes_that_disagree_with_its_weights_raise_corrupt(
    tmp_path, small_db, field, change
):
    # an edited prom.m used to load and fail only at the first query
    path = tmp_path / "prom.promdb"
    save_database(small_db[0], path)
    kind, meta, arrays = read_container(path)
    meta["prom"][field] += change
    write_container(path, kind, meta, arrays)
    with pytest.raises(CorruptFileError, match="rows for n="):
        load_database(path)


def test_cli_inspect_reports_malformed_container(tmp_path, small_db, capsys):
    path = tmp_path / "prom.promdb"
    save_database(small_db[0], path)
    _rewrite_manifest(path, _edit_first_entry(dtype="float32"))
    assert cli_main(["inspect", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved_containers(small_db, tmp_path_factory):
    db, cfg = small_db
    out = tmp_path_factory.mktemp("saved")
    save_database(db, out / "prom.promdb")
    save_report(run_benchmark(db, cfg), out / "bench.promdb")
    loaders = {"prom.promdb": load_database, "bench.promdb": load_report}
    return out / "damaged.promdb", {
        name: ((out / name).read_bytes(), load) for name, load in loaders.items()
    }


@pytest.mark.parametrize("name", ["prom.promdb", "bench.promdb"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_container_loads_or_raises_corrupt(saved_containers, name, data):
    """A flipped byte or a truncation either loads or raises a container error.

    Under format version 1 the checksum covers only the payload, so a flip
    in a meta value can still load.
    """
    path, saved = saved_containers
    blob, load = saved[name]
    manifest_end = 16 + int.from_bytes(blob[8:16], "little")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # favour the manifest: every payload flip fails the checksum
        where = st.integers(0, manifest_end - 1) | st.integers(0, len(blob) - 1)
        position = data.draw(where, label="position")
        damaged = bytearray(blob)
        damaged[position] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(damaged))
    try:
        load(path)
    except (CorruptFileError, FormatVersionError):
        pass
