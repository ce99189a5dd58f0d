import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modtrace as mt
from modtrace import files
from modtrace.fusion import _json_array
from helpers import saved_text_reference


def test_ring_round_trip(tmp_path):
    ring = mt.builtin("ising")[0]
    path = tmp_path / "ising.ring.json"
    files.save_ring(ring, path)
    loaded = files.load_ring(path)
    assert loaded == ring
    assert loaded.content_hash() == ring.content_hash()
    data = json.loads(path.read_text())
    assert list(data.keys()) == ["rank", "labels", "unit", "dual", "N"]
    # the ring file holds integers only
    assert all(isinstance(x, int) for row in data["N"] for col in row for x in col)


def test_char_round_trip(tmp_path):
    ring, chars = mt.builtin("fibonacci")
    path = tmp_path / "char.json"
    files.save_char(chars[0], path)
    loaded = files.load_char(path, ring)
    assert np.max(np.abs(loaded.d - chars[0].d)) < 1e-12


def test_module_round_trip(tmp_path):
    ring = mt.builtin("rep_s3")[0]
    rep = mt.regular_module(ring)
    path = tmp_path / "mod.json"
    files.save_module(rep, path)
    loaded = files.load_module(path, ring)
    assert loaded == rep


def test_group_round_trip(tmp_path):
    table = mt.builtin_group("Z2xZ2")
    path = tmp_path / "group.json"
    files.save_group(table, path)
    loaded = files.load_group(path)
    assert loaded == table


def test_ring_hash_mismatch_rejected(tmp_path):
    ring, chars = mt.builtin("fibonacci")
    other = mt.builtin("ising")[0]
    path = tmp_path / "char.json"
    files.save_char(chars[0], path)
    with pytest.raises(mt.StructuralError):
        files.load_char(path, other)


def test_free_form_ring_label_accepted(tmp_path):
    ring = mt.builtin("fibonacci")[0]
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"ring": "my-ring", "d": [[1.0, 0.0], [2.0, 0.0]]}))
    loaded = files.load_char(path, ring)  # label is informational only
    assert loaded.d[1] == 2.0


def test_malformed_files_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(mt.StructuralError):
        files.load_ring(bad)
    bad.write_text("[1, 2, 3]")
    with pytest.raises(mt.StructuralError):
        files.load_ring(bad)
    bad.write_text(json.dumps({"rank": 2}))
    with pytest.raises(mt.StructuralError):
        files.load_ring(bad)


def test_round12_behaviour():
    assert files.round12(1.6180339887498949) == 1.61803398875
    assert files.round12(0.0) == 0.0
    tree = files.round12_tree({"a": [1, 2.00000000000004, True]})
    assert tree == {"a": [1, 2.0, True]}
    assert tree["a"][2] is True


def test_group_round_trip_keeps_labels(tmp_path):
    table = mt.cyclic_table(6)
    path = tmp_path / "group.json"
    files.save_group(table, path)
    assert list(json.loads(path.read_text())) == ["order", "labels", "mul"]
    loaded = files.load_group(path)
    assert loaded.labels == ("e", "g", "g2", "g3", "g4", "g5")
    # the ring of the reloaded group is the builtin's ring, hash included
    assert mt.group_ring(loaded).content_hash() == mt.group_ring(table).content_hash() == "4cf868718fa7"


def test_group_file_without_labels_loads_as_before(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": 3, "mul": mt.cyclic_table(3).mul.tolist()}))
    loaded = files.load_group(path)
    assert loaded.labels is None
    assert [loaded.label(a) for a in range(3)] == ["e", "g1", "g2"]
    files.save_group(loaded, path)
    assert "labels" not in json.loads(path.read_text())


def _hash_reference(ring) -> str:
    blob = json.dumps(ring.to_dict(), separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@st.composite
def _rings(draw):
    """Any non-negative ``FusionRing`` data: the constructor checks shapes and ranges, not axioms."""
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from([1, 9, 10, 10**6]))
    entries = st.integers(0, top) | st.sampled_from([0, 9, top])
    N = draw(st.lists(entries, min_size=n**3, max_size=n**3))
    labels = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
    dual = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return mt.FusionRing(n, labels, draw(st.integers(0, n - 1)), dual, np.reshape(N, (n, n, n)))


# one ring per encoder path: every entry a digit, and entries past 9
@example(mt.FusionRing(1, ["\u00e9\u2603"], 0, [0], [[[9]]]))
@example(mt.FusionRing(2, ["1", "\U0001d4b3"], 1, [1, 0], [[[0, 10], [1, 2]], [[10**6, 9], [0, 0]]]))
@settings(max_examples=200, deadline=None)
@given(_rings())
def test_content_hash_is_the_sha256_of_the_compact_to_dict(ring):
    assert ring.content_hash() == _hash_reference(ring)


@pytest.mark.parametrize("top", [9, 10, 10**6])
@pytest.mark.parametrize("shape", [(1,), (3,), (1, 1, 1), (2, 3), (3, 1, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("comma", [",", ", "])
def test_json_array_is_json_dumps_of_tolist(top, shape, comma):
    arr = np.random.default_rng(sum(shape) + top).integers(0, top + 1, size=shape)
    arr.flat[-1] = top  # the largest entry decides the path
    assert _json_array(arr, comma) == json.dumps(arr.tolist(), separators=(comma, ":"))


def _wide_ring():
    """A rank-3 ring (no axioms) with multi-digit structure constants."""
    N = np.arange(27).reshape(3, 3, 3) * 37
    return mt.FusionRing(3, ["a", "b", "\u00e7"], 0, [0, 2, 1], N)


@pytest.mark.parametrize(
    "ring",
    [mt.builtin("fibonacci")[0], mt.builtin("rep_s3")[0], mt.builtin("zn:11")[0], _wide_ring()],
    ids=["fibonacci", "rep_s3", "zn:11", "wide"],
)
def test_saved_ring_and_module_bytes_equal_the_reference_encoding(ring, tmp_path):
    path = tmp_path / "file.json"
    files.save_ring(ring, path)
    assert path.read_text(encoding="utf-8") == saved_text_reference(ring.to_dict())
    n = ring.rank
    modules = [mt.regular_module(ring), mt.NimRep(ring, 1, np.full((n, 1, 1), 12)), mt.NimRep(ring, 1, np.ones((n, 1, 1)))]
    for rep in modules:
        files.save_module(rep, path)
        reference = {"ring": ring.content_hash(), "module_rank": rep.module_rank, "M": rep.M.tolist()}
        assert path.read_text(encoding="utf-8") == saved_text_reference(reference)


@pytest.mark.parametrize("name", ["Z2xZ2", "S3", "Z:10", "Z:12"])
def test_saved_group_bytes_equal_the_reference_encoding(name, tmp_path):
    path = tmp_path / "group.json"
    labelled = mt.builtin_group(name)
    for table in (labelled, mt.GroupTable(labelled.order, labelled.mul)):
        files.save_group(table, path)
        reference = {"order": table.order}
        if table.labels is not None:
            reference["labels"] = list(table.labels)
        reference["mul"] = table.mul.tolist()
        assert path.read_text(encoding="utf-8") == saved_text_reference(reference)
