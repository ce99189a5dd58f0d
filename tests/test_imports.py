"""The lazy package namespace and the layers each CLI verb loads."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modtrace as mt
from modtrace import cli

SRC = str(Path(mt.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: prints the modules of ``forbidden`` that are loaded after ``body``.
CHILD = """
import sys
import modtrace
{body}
print(" ".join(sorted(m for m in {forbidden!r} if m in sys.modules)))
"""


def _loaded_after(body: str, forbidden: list[str]) -> list[str]:
    code = CHILD.format(body=body, forbidden=forbidden)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _layers(*names):
    return [f"modtrace.{name}" for name in names]


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Fibonacci ring, regular module and characters, as ``builtin --emit`` writes them."""
    d = tmp_path_factory.mktemp("fib")
    assert cli.run(["builtin", "fibonacci", "--emit", str(d)]) == 0
    return d


def test_import_loads_no_layer_and_no_numpy():
    layers = _layers("common", "fusion", "chars", "nimrep", "solver", "frobenius", "groups", "catalog", "files", "cli")
    listing = "assert set(modtrace.__all__) <= set(dir(modtrace))"  # listed before any layer is loaded
    assert _loaded_after(listing, layers + ["numpy"]) == []


@pytest.mark.parametrize(
    "verbs, absent",
    [
        ([["validate", "{ring}"], ["fp-dims", "{ring}"]], ("chars", "nimrep", "solver", "frobenius", "groups", "catalog")),
        ([["trace", "{ring}", "--char", "0", "--module", "{module}"]], ("frobenius", "groups", "catalog")),
        ([["vectg", "--group", "Z:4", "--subgroups", "--characters", "--emit", "{out}"]], ("solver", "frobenius")),
    ],
    ids=["validate+fp-dims", "trace", "vectg"],
)
def test_each_verb_loads_only_its_layers(verbs, absent, emitted, tmp_path):
    paths = {"ring": emitted / "ring.json", "module": emitted / "module-regular.json", "out": tmp_path / "z4"}
    runs = [[arg.format(**{k: str(v) for k, v in paths.items()}) for arg in argv] for argv in verbs]
    body = "import io\nfrom modtrace import cli\n" + "".join(
        f"assert cli.run({argv!r}, out=io.StringIO()) == 0\n" for argv in runs
    )
    assert _loaded_after(body, _layers(*absent)) == []


def test_solve_path_loads_no_numpy_random_and_no_hashlib(emitted):
    # numpy.random loads secrets -> hmac -> hashlib -> OpenSSL; the ring hash takes CPython's
    # builtin SHA-256, so no verb needs hashlib, even one that hashes a ring
    pinned = ["numpy.random", "hashlib", "_hashlib"]
    if _loaded_after("import numpy", pinned):
        pytest.skip("this numpy loads numpy.random on import")
    solve = """
ring = modtrace.group_ring(modtrace.cyclic_table(12))
chars = modtrace.enumerate_characters(ring)
assert len(chars) == 12
assert modtrace.solve_module_trace(ring, chars[1], modtrace.regular_module(ring)).matched
"""
    assert _loaded_after(solve, pinned) == []
    ring, module, char = (str(emitted / name) for name in ("ring.json", "module-regular.json", "char-00.json"))
    hashing = [["validate", ring], ["trace", ring, "--char", char, "--module", module], ["builtin", "zn:12"]]
    for argv in hashing:
        body = f"import io\nfrom modtrace import cli\nassert cli.run({argv!r}, out=io.StringIO()) == 0\n"
        assert _loaded_after(body, pinned + ["_sha2", "_sha256"]) in (["_sha2"], ["_sha256"]), argv


def test_every_public_name_is_its_layers_object():
    for name, layer in mt._LAYER_OF.items():
        module = importlib.import_module(f"modtrace.{layer}")
        value = getattr(mt, name)
        assert value is getattr(module, name), name
        assert vars(mt)[name] is value, name  # kept as a plain global after the first read
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_namespace_listing_and_star_import():
    assert set(mt.__all__) <= set(dir(mt))
    namespace = {}
    exec("from modtrace import *", namespace)
    assert set(mt.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        mt.no_such_name


def test_cli_resolves_layer_names_through_the_package():
    from modtrace import solver

    assert cli.solve_module_trace is solver.solve_module_trace
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):  # not a package: only public layer names are delegated
        cli.__path__


def test_every_public_name_has_a_reader():
    # a reader is a layer module, the acceptance suite, the test oracles or a benchmark workload
    readers = [p for p in sorted(Path(SRC, "modtrace").glob("*.py")) if p.name != "__init__.py"]
    readers += [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py", ROOT / "bench" / "workloads.py"]
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(mt.__all__) - read) == []
