"""The traced benchmark (perfbench/spans.py, read here, never changed) wraps
program functions by name and its hooks read their arguments by name: every
layer it lists must still exist and take the arguments its hooks read."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import stablesde as ss

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_spans().LAYERS


def _target(mod_name, attr):
    module = importlib.import_module("stablesde." + mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, attr)


def _names_read(fn) -> set:
    """Argument names a hook or span-name function reads: a["x"] or a.get("x")."""
    return set(re.findall(r'\ba(?:\[|\.get\()"(\w+)"', inspect.getsource(fn)))


@pytest.mark.parametrize("mod_name, attr, name, hook", LAYERS,
                         ids=[f"{m}.{a}" for m, a, _, _ in LAYERS])
def test_layer_exists_and_takes_the_arguments_read(mod_name, attr, name, hook):
    target = _target(mod_name, attr)
    assert callable(target)
    wanted = set().union(*(_names_read(f) for f in (hook, name) if callable(f)))
    assert wanted <= set(inspect.signature(target).parameters)


def test_hooks_read_the_expected_names():
    """The name scan finds what the hooks read, so the test above checks them."""
    found = set().union(*(_names_read(f) for _, _, name, hook in LAYERS
                          for f in (hook, name) if callable(f)))
    assert {"law", "x", "n", "thetas", "model", "config", "path"} <= found


def test_density_hook_reads_the_cutoff():
    assert isinstance(ss.make_stable_law(1.5).density_quadrature.oscillatory_cutoff,
                      float)
