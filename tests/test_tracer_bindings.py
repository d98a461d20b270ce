"""The benchmark tracer's bindings to library names.

``perfbench/tracing.py`` wraps library functions by (owner, attribute)
and binds ``select_next``'s arguments by name to count candidates.  A
renamed or removed name would otherwise surface only as an error in a
traced benchmark run.  The tracer module is imported read-only.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dptomo import measurement_selector as ms
from dptomo.gaussian_posterior import init_prior

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_bound_and_callable():
    tracing = _load_tracing()
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_select_next_span_counts_candidates():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    bank = np.random.default_rng(3).uniform(0.0, 1.0, (5, 3))
    original = ms.select_next
    best, predicted = tracer.op(
        0, lambda: ms.select_next(init_prior(2), bank, 20, (1, 3), n_nodes=8)
    )
    assert ms.select_next is original
    assert (best, predicted) == original(init_prior(2), bank, 20, (1, 3), n_nodes=8)
    spans = [s for s in tracer.as_records() if s["name"] == "measurement_selector.select_next"]
    assert len(spans) == 1
    assert spans[0]["counts"] == {"candidates": 3, "outcome_evals": 3 * 8 * 21}
