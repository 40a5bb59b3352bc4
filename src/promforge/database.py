"""Self-describing binary containers for databases, surrogates and reports.

One file = fixed magic, a little-endian uint64 manifest length, a canonical
JSON manifest (sorted keys), then the concatenated raw array payload
(little-endian float64/int64, C order).  The manifest carries the format
version, a SHA-256 of the payload, the array table and all scalar
metadata, so files are lossless, versioned and diffable up to the binary
block.  Nothing time-dependent is written: identical inputs give identical
bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import getitem

import numpy as np

from .errors import CorruptFileError, FormatVersionError
from .global_basis import GlobalBasis
from .rbf import OPERATOR_NAMES, PromModel, ValidationReport
from .rom import RomOperators
from .tensor_id import IdentifiedTensors

__all__ = [
    "write_container",
    "read_container",
    "RomDatabase",
    "save_database",
    "load_database",
    "BenchmarkReport",
    "save_report",
    "load_report",
]

_MAGIC = b"PROMFRG1"
_FORMAT_VERSION = 1

_MANIFEST_KEYS = ("format_version", "kind", "payload_sha256", "arrays", "meta")
_DTYPES = {"float64": "<f8", "int64": "<i8"}
_STORED_AS = {"f": "float64", "i": "int64", "u": "int64"}  # numpy dtype kind -> stored dtype


def write_container(path, kind: str, meta: dict, arrays: dict) -> None:
    """Write a deterministic container file."""
    table = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dtype = _STORED_AS.get(arr.dtype.kind)
        if dtype is None:
            raise ValueError(f"unsupported array dtype for {name!r}: {arr.dtype}")
        arr = arr.astype(_DTYPES[dtype], copy=False)
        raw = arr.tobytes()
        table.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(raw),
            }
        )
        payload.extend(raw)

    manifest = {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "payload_sha256": hashlib.sha256(bytes(payload)).hexdigest(),
        "arrays": table,
        "meta": meta,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(bytes(payload))


def read_container(path):
    """Read and verify a container; returns (kind, meta, arrays) or raises CorruptFileError."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())  # slices share the file bytes
    if len(data) < len(_MAGIC) + 8 or data[: len(_MAGIC)] != _MAGIC:
        raise CorruptFileError(f"{path}: not a promforge container (bad magic)")
    n = int.from_bytes(data[len(_MAGIC) : len(_MAGIC) + 8], "little")
    start = len(_MAGIC) + 8
    if start + n > len(data):
        raise CorruptFileError(f"{path}: truncated manifest")
    payload = data[start + n :]
    arrays = {}
    # UnicodeDecodeError and JSONDecodeError are ValueErrors
    try:
        manifest = json.loads(str(data[start : start + n], "utf-8"))
        version, kind, digest, table, meta = (manifest[key] for key in _MANIFEST_KEYS)
        if version != _FORMAT_VERSION:
            raise FormatVersionError(
                f"{path}: format version {version} not supported (expected {_FORMAT_VERSION})"
            )
        if hashlib.sha256(payload).hexdigest() != digest:
            raise CorruptFileError(f"{path}: payload checksum mismatch")
        for entry in table:
            lo, nbytes, shape = entry["offset"], entry["nbytes"], entry["shape"]
            if lo < 0 or nbytes < 0 or nbytes != 8 * math.prod(shape) or lo + nbytes > len(payload):
                raise ValueError(f"array {entry['name']!r} does not fit the payload")
            arr = np.frombuffer(data, _DTYPES[entry["dtype"]], nbytes // 8, start + n + lo)
            arrays[entry["name"]] = arr.reshape(shape).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: malformed container: {exc!r}") from exc
    return kind, meta, arrays


# ----------------------------------------------------------------------
# field tables
# ----------------------------------------------------------------------
# Each table maps a container key to (field, cast).  Saving stores
# cast(field value) under the key and loading passes cast(stored value)
# back as the field, so one table describes both directions.  ndarray
# values go to the arrays and all others to the meta, where a dotted key
# is a path into nested meta.  "{}" in a key is filled per family member.
_DATABASE = {
    "points": ("points", np.asarray),
    "role": ("role", str),
    "config": ("config", dict),
    "counters": ("counters", dict),
    "tensor_method": ("method", str),  # shared by every sample
    # optional sections: saved as whether they are set
    "has_prom": ("prom", bool),
    "has_validation": ("validation", bool),
}
_GLOBAL_BASIS = {
    "global_vectors": ("vectors", np.asarray),
    "energy_modes": ("energy_modes", np.asarray),
    "energy_companions": ("energy_companions", np.asarray),
    "sv_modes": ("singular_values_modes", np.asarray),
    "sv_companions": ("singular_values_companions", np.asarray),
    "m_modes": ("m_modes", int),
    "m_companions": ("m_companions", int),
}
_LINEAGE = {
    "references": ("references", partial(np.asarray, dtype=np.int64)),
    "permutations": ("permutations", partial(np.asarray, dtype=np.int64)),
    "signs": ("signs", partial(np.asarray, dtype=float)),
    "macs": ("macs", partial(np.asarray, dtype=float)),
    "start_index": ("start_index", int),
}
# one row per sample, stacked into one array per key
_ROM_ROWS = {
    "bases": ("basis", np.asarray),
    "k1_diags": ("k1_diag", np.asarray),
    "alphas": ("alpha", float),
    "betas": ("beta", float),
}
_TENSOR_ROWS = {
    "k2s": ("k2_unique", np.asarray),
    "k3s": ("k3_unique", np.asarray),
    "scales": ("scales", np.asarray),
    "asymmetries": ("asymmetry", float),
    "eval_counts": ("eval_count", int),
}
_PROM = {
    "prom_centers": ("centers", np.asarray),
    "prom.kernel_kind": ("kind", str),
    "prom.n": ("n", int),
    "prom.m": ("m", int),
}
_PROM_OPERATOR = {  # per operator name
    "prom_w_{}": ("weights", np.asarray),
    "prom_o_{}": ("offset", np.asarray),
    "prom.eps.{}": ("eps", float),
    "prom.condition.{}": ("condition", float),
}
_VALIDATION = {
    "val_eps_grid": ("eps_grid", np.asarray),
    "validation.selected": ("selected", dict),
    "validation.kernel_kind": ("kernel_kind", str),
    "validation.metric": ("metric", str),
}
_VALIDATION_OPERATOR = {"val_curve_{}": ("curve", np.asarray)}  # per operator name
_REPORT = {
    "test_points": ("test_points", np.asarray),
    "physical_points": ("physical_points", np.asarray),
    "monitors": ("monitors", list),
    "errors": ("errors", list),
    "periods": ("periods", list),
    "failures": ("failures", list),
    "closest_indices": ("closest_indices", lambda ks: [int(k) for k in ks]),
    "eps_table": ("eps_table", dict),
    "eval_counts": ("eval_counts", dict),
    "n_points": ("n_points", int),
    "model_kinds": ("model_kinds", list),
}
_HISTORY = {  # per test point and model kind; a failed model has none
    "tp{:03d}_{}_time": ("time", np.asarray),
    "tp{:03d}_{}_traces": ("traces", np.asarray),
}


@lru_cache(maxsize=None)
def _key_path(key: str, *names) -> tuple:
    """A table key's path into the nested meta, parsed once per key and names."""
    return tuple(key.format(*names).split("."))


def _encode(table: dict, values, arrays: dict, meta: dict, *names) -> None:
    """Store each field of `values` (a mapping) under its table key."""
    for key, (attr, cast) in table.items():
        value = cast(values[attr])
        *path, leaf = _key_path(key, *names)
        node = arrays if isinstance(value, np.ndarray) else meta
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = value


def _decode(table: dict, entries: dict, *names) -> dict:
    """The fields that `_encode` stored, keyed by field name."""
    return {
        attr: cast(reduce(getitem, _key_path(key, *names), entries))
        for key, (attr, cast) in table.items()
    }


def _encode_rows(table: dict, rows: list, arrays: dict) -> None:
    """Stack each field over `rows` into one array; `_decode_database` reads row i back."""
    for key, (attr, cast) in table.items():
        arrays[key] = np.stack([cast(row[attr]) for row in rows])


def _load(path, kind: str, decode):
    """Rebuild a `kind` container's object; any malformed field is a CorruptFileError."""
    found, meta, arrays = read_container(path)
    if found != kind:
        raise CorruptFileError(f"{path}: expected a {kind} container, got {found!r}")
    try:
        return decode({**meta, **arrays})
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptFileError(f"{path}: malformed {kind} container: {exc!r}") from exc


# ----------------------------------------------------------------------
# ROM database
# ----------------------------------------------------------------------
@dataclass
class RomDatabase:
    """Training (or validation) samples with their reduced models."""

    role: str
    config: dict
    points: np.ndarray  # (n_samples, n_params) normalized
    roms: list  # RomOperators per sample, aligned with points
    global_basis: GlobalBasis  # POD basis before mass orthogonalization
    lineage: dict  # reordering provenance per sample
    counters: dict  # per-stage black-box evaluation counts
    prom: PromModel | None = None
    validation: ValidationReport | None = None

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.roms[0].n

    @property
    def m(self) -> int:
        return self.roms[0].m


def save_database(db: RomDatabase, path) -> None:
    arrays, meta = {}, {}
    _encode(_DATABASE, {**vars(db), "method": db.roms[0].tensors.method}, arrays, meta)
    _encode(_GLOBAL_BASIS, vars(db.global_basis), arrays, meta)
    _encode(_LINEAGE, db.lineage, arrays, meta)
    _encode_rows(_ROM_ROWS, [vars(r) for r in db.roms], arrays)
    _encode_rows(_TENSOR_ROWS, [vars(r.tensors) for r in db.roms], arrays)
    if db.prom is not None:
        _encode(_PROM, vars(db.prom), arrays, meta)
        for name in OPERATOR_NAMES:
            fitted = {attr: getattr(db.prom, attr)[name] for attr, _ in _PROM_OPERATOR.values()}
            _encode(_PROM_OPERATOR, fitted, arrays, meta, name)
    if db.validation is not None:
        _encode(_VALIDATION, vars(db.validation), arrays, meta)
        for name in OPERATOR_NAMES:
            _encode(_VALIDATION_OPERATOR, {"curve": db.validation.curves[name]}, arrays, meta, name)
    write_container(path, "rom_database", meta, arrays)


def _decode_database(entries: dict) -> RomDatabase:
    fields = _decode(_DATABASE, entries)
    has_prom, has_validation = fields.pop("prom"), fields.pop("validation")
    method = fields.pop("method")
    roms = []
    for i, p_hat in enumerate(fields["points"]):
        rom = {attr: cast(entries[key][i]) for key, (attr, cast) in _ROM_ROWS.items()}
        ident = {attr: cast(entries[key][i]) for key, (attr, cast) in _TENSOR_ROWS.items()}
        tensors = IdentifiedTensors(len(rom["k1_diag"]), method=method, **ident)
        roms.append(RomOperators(tensors=tensors, p_hat=p_hat, **rom))
    db = RomDatabase(
        roms=roms,
        global_basis=GlobalBasis(**_decode(_GLOBAL_BASIS, entries)),
        lineage=_decode(_LINEAGE, entries),
        **fields,
    )
    if has_prom:
        fitted = {name: _decode(_PROM_OPERATOR, entries, name) for name in OPERATOR_NAMES}
        per_operator = {
            attr: {name: fitted[name][attr] for name in OPERATOR_NAMES}
            for attr, _ in _PROM_OPERATOR.values()
        }
        db.prom = PromModel(**_decode(_PROM, entries), **per_operator)
    if has_validation:
        curves = {n: _decode(_VALIDATION_OPERATOR, entries, n)["curve"] for n in OPERATOR_NAMES}
        db.validation = ValidationReport(curves=curves, **_decode(_VALIDATION, entries))
    return db


def load_database(path) -> RomDatabase:
    return _load(path, "rom_database", _decode_database)


# ----------------------------------------------------------------------
# benchmark report
# ----------------------------------------------------------------------
MODEL_KINDS = ("hfm", "interpolated", "closest", "recomputed", "linear")


@dataclass
class BenchmarkReport:
    """Five-model comparison at every test point."""

    test_points: np.ndarray  # normalized
    physical_points: np.ndarray
    monitors: list  # monitored-dof labels
    histories: list  # per point: {kind: {"time": arr, "traces": (steps, n_mon)}}
    errors: list  # per point: {kind: float} relative L2 vs the full model
    periods: list  # per point: {kind: float} dominant period estimate
    failures: list  # per point: {kind: str} for models that failed
    closest_indices: list
    eps_table: dict = field(default_factory=dict)
    eval_counts: dict = field(default_factory=dict)
    timings: list = field(default_factory=list)  # per point: {kind: seconds}; not persisted

    @property
    def n_points(self) -> int:
        return self.test_points.shape[0]


def save_report(report: BenchmarkReport, path) -> None:
    """Persist everything except wall-clock timings (kept in a sidecar)."""
    arrays, meta = {}, {}
    values = {**vars(report), "n_points": report.n_points, "model_kinds": MODEL_KINDS}
    _encode(_REPORT, values, arrays, meta)
    for i, per_point in enumerate(report.histories):
        for kind, hist in per_point.items():
            _encode(_HISTORY, hist, arrays, meta, i, kind)
    write_container(path, "benchmark_report", meta, arrays)


def _decode_report(entries: dict) -> BenchmarkReport:
    fields = _decode(_REPORT, entries)
    kinds, histories = fields.pop("model_kinds"), []
    for i in range(fields.pop("n_points")):
        present = [k for k in kinds if any(key.format(i, k) in entries for key in _HISTORY)]
        histories.append({k: _decode(_HISTORY, entries, i, k) for k in present})
    return BenchmarkReport(histories=histories, **fields)


def load_report(path) -> BenchmarkReport:
    return _load(path, "benchmark_report", _decode_report)
