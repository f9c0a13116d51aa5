"""The benchmark tracer's call sites still exist in the library.

``perfbench/tracer.py`` times each layer by replacing a module or class
attribute where its caller looks it up. A refactor that moves or renames one
of those functions would silently leave its per-layer metric empty; this
test makes it fail instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves_to_a_callable():
    call_sites = _load_tracer().CALL_SITES
    missing = []
    for owner, attribute, _ in call_sites:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
        if not callable(getattr(target, attribute, None)):
            missing.append(f"{owner}.{attribute}")
    assert call_sites
    assert missing == []
