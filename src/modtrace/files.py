"""JSON file formats for rings, characters, modules, groups and certificates.

All integer data round-trips bit-exactly; floats are written with 12
significant digits, so reloading agrees to better than 1e-12 relative.
Integer arrays (``N``, ``M``, ``mul``) are written by the same encoder that
:meth:`FusionRing.content_hash` hashes with, as ``json.dumps`` would write
their ``tolist()``.
Character and module files carry the content hash of their ring so that
mismatched inputs are rejected early.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .common import StructuralError, complex_pair, require_budget
from .fusion import FusionRing, _json_text

if TYPE_CHECKING:  # imported where used, so loading a ring pulls in no other layer
    from .chars import DimChar
    from .groups import GroupTable
    from .nimrep import NimRep

_HASH_RE = re.compile(r"^[0-9a-f]{12}$")


def round12(x: float) -> float:
    """Clamp a float to 12 significant digits (the printing precision)."""
    return float(f"{float(x):.12g}")


def round12_tree(data):
    """Apply :func:`round12` to every float in a nested JSON-like structure."""
    if isinstance(data, bool) or isinstance(data, int) or data is None:
        return data
    if isinstance(data, float):
        return round12(data)
    if isinstance(data, (list, tuple)):
        return [round12_tree(x) for x in data]
    if isinstance(data, dict):
        return {k: round12_tree(v) for k, v in data.items()}
    return data


def dumps(data) -> str:
    """Canonical one-document JSON text: fixed key order, rounded floats.  Integer-array values
    of the top-level object (``N``, ``M``, ``mul``) are written by the encoder of the hash."""
    return _json_text(round12_tree(data), ", ", ": ")


def save_json(data, path) -> None:
    Path(path).write_text(dumps(data) + "\n", encoding="utf-8")


def _load_dict(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise StructuralError(f"{path}: not valid JSON (nested too deeply)") from None
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{path}: not UTF-8 text ({exc})") from None
    if not isinstance(data, dict):
        raise StructuralError(f"{path}: expected a JSON object")
    return data


def _require(data: dict, keys: list[str], what: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise StructuralError(f"{what} file is missing keys: {', '.join(missing)}")


def _require_size(data: dict, key: str, nbytes, what: str) -> None:
    """Refuse, before its array is built, a file whose header ``key`` asks for ``nbytes(size)``
    bytes over the budget; a header that is not a positive number is left to the constructor."""
    size = data[key]
    if isinstance(size, (int, float)) and not isinstance(size, bool) and 0 < size < float("inf"):
        require_budget(nbytes(int(size)), what, int(size))


# -- rings --------------------------------------------------------------

def save_ring(ring: FusionRing, path) -> None:
    save_json(ring._fields(), path)


def load_ring(path) -> FusionRing:
    data = _load_dict(path)
    _require(data, ["rank", "labels", "unit", "dual", "N"], "ring")
    _require_size(data, "rank", lambda n: 8 * n**3, "a ring of rank %d")
    return FusionRing(data["rank"], data["labels"], data["unit"], data["dual"], data["N"])


def _check_ring_field(value, ring: FusionRing, what: str) -> None:
    # hash-shaped references are verified; free-form labels are informational
    if isinstance(value, str) and _HASH_RE.match(value) and value != ring.content_hash():
        raise StructuralError(
            f"{what} file references ring {value}, expected {ring.content_hash()}"
        )


# -- characters ---------------------------------------------------------

def save_char(char: DimChar, path) -> None:
    data = {
        "ring": char.ring.content_hash(),
        "d": [complex_pair(z) for z in char.d],
    }
    save_json(data, path)


def load_char(path, ring: FusionRing) -> DimChar:
    from .chars import DimChar

    data = _load_dict(path)
    _require(data, ["ring", "d"], "character")
    _check_ring_field(data["ring"], ring, "character")
    try:
        values = np.array([complex(re, im) for re, im in data["d"]])
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"bad character entries: {exc}") from None
    return DimChar(ring, values)


# -- modules ------------------------------------------------------------

def save_module(rep: NimRep, path) -> None:
    data = {
        "ring": rep.ring.content_hash(),
        "module_rank": rep.module_rank,
        "M": rep.M,
    }
    save_json(data, path)


def load_module(path, ring: FusionRing) -> NimRep:
    from .nimrep import NimRep

    data = _load_dict(path)
    _require(data, ["ring", "module_rank", "M"], "module")
    _require_size(data, "module_rank", lambda k: 8 * ring.rank * k * k, "a module of rank %d")
    _check_ring_field(data["ring"], ring, "module")
    return NimRep(ring, data["module_rank"], data["M"])


# -- groups -------------------------------------------------------------

def save_group(table: GroupTable, path) -> None:
    data = {"order": table.order}
    if table.labels is not None:
        data["labels"] = list(table.labels)
    data["mul"] = table.mul
    save_json(data, path)


def load_group(path) -> GroupTable:
    from .groups import GroupTable

    data = _load_dict(path)
    _require(data, ["order", "mul"], "group")
    _require_size(data, "order", lambda g: 8 * g * g, "a group of order %d")
    return GroupTable(data["order"], data["mul"], data.get("labels"))
