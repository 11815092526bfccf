"""The benchmark's layer trace, ``certbench/tracer.py``, read as it stands:
every entry point it wraps must exist in the package, and the ``ff_rank``
counter hook must fit a staged call, so a change of a kernel's name or
signature cannot make a traced run fail or read zero."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cuboid_complex import _exactcore, verify
from cuboid_complex.elements import family
from cuboid_complex.verify import COMPLEXES

TRACER = Path(__file__).resolve().parent.parent / "certbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("certbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists(tracer):
    for name, modname, attr, how, hook, _key in tracer.ENTRIES:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if how == "registry":
            assert isinstance(target, dict) and target, name
        else:
            assert callable(target), name
        assert hook is None or callable(hook), name


def test_ff_rank_hook_counts_staged_calls(tracer, monkeypatch):
    name, _mod, _attr, _how, hook, key = next(
        entry for entry in tracer.ENTRIES if entry[0] == "exactcore.ff_rank")
    trace = tracer.Tracer()
    traced = trace._timed(name, _exactcore.ff_rank, hook, key)
    assert traced([{0: 1}, {}, {0: 2, 1: 1}], 2, ends=[1, 3]) == [1, 2]
    assert trace.metrics()[f"{name}.nnz_in"] == 3
    # the class ranks of one edge call the kernel as the tracer rebinds it
    fams, ops = COMPLEXES["gradgrad"][:2]
    monkeypatch.setattr(_exactcore, "ff_rank", traced)
    verify._class_ranks.cache_clear()
    try:
        ranks = verify._class_ranks(ops[0], family(fams[0], 3),
                                    family(fams[1], 3), (0, 1, 2))
    finally:
        verify._class_ranks.cache_clear()
    metrics = trace.metrics()
    assert len(ranks) == 8
    assert metrics[f"{name}.calls"] == 1 + 3
    assert metrics[f"{name}.nnz_in"] > 3
