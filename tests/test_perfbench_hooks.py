"""The benchmark's trace hooks name functions that exist.

``perfbench/spans.py`` reports a hook whose target does not resolve as an
absent metric, not as an error; this test makes a rename of a hooked
function or method fail the suite instead.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    spans = _load_spans()
    assert spans.HOOKS
    unresolved = {}
    for hook in spans.HOOKS:
        found = spans._resolve(hook.target)
        if isinstance(found, str):
            unresolved[hook.metric] = found
    assert not unresolved
