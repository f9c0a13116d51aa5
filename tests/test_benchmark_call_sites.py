"""The benchmark tracer's call sites still exist in the library.

``perfbench/tracer.py`` times each layer by replacing a module or class
attribute where its caller looks it up. A refactor that moves or renames one
of those functions would silently leave its per-layer metric empty; these
tests make it fail instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from situsearch import evaluation, search
from situsearch.datagen import default_generator_config, generate_synthetic

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


def test_tracer_installs_counts_and_restores_every_attribute():
    # Besides CALL_SITES, the tracer wraps Workspace.observe and reads
    # evaluation.method_label for every traced run.
    tracer_module = _load_tracer()
    owners = [(tracer_module._owner(spec), attr) for spec, attr, _ in tracer_module.CALL_SITES]
    owners.append((search.Workspace, "observe"))
    before = [(owner, attr, getattr(owner, attr)) for owner, attr in owners]
    scenes = generate_synthetic(default_generator_config(seed=2), 12)
    tracer = tracer_module.Tracer("call-sites")
    with tracer:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in before)
        evaluation.run_experiment(
            scenes, ["uniform-learned-learned"], k=3, max_iterations=100, cell_size=8.0
        )
    assert [(owner, attr, getattr(owner, attr)) for owner, attr in owners] == before
    assert {run[1] for run in tracer.runs[1:]} == {"uniform-learned-learned"}
    assert tracer.workspace_changes > 0
    assert tracer.calls[tracer._nid["search.score_proposal"]] > 0
