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
    tokens = ["uniform-learned-learned", "uniform-learned-none"]
    tracer = tracer_module.Tracer("call-sites")
    with tracer:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in before)
        report = evaluation.run_experiment(scenes, tokens, k=3, max_iterations=100, cell_size=8.0)
    assert [(owner, attr, getattr(owner, attr)) for owner, attr in owners] == before
    assert {run[1] for run in tracer.runs[1:]} == set(tokens)
    assert tracer.calls[tracer._nid["search.score_proposal"]] > 0

    # The context-free runs are scored in blocks, and still file their
    # detections through Workspace.observe: each final is a counted change.
    situation_only = tracer_module.Tracer("call-sites")
    with situation_only:
        evaluation.run_experiment(scenes, tokens[:1], k=3, max_iterations=100, cell_size=8.0)
    context_free = next(m for m in report.methods if m.config.situation_model == "none")
    finals = sum(t is not None for run in context_free.runs for t in run.detections.values())
    assert finals > 0
    assert tracer.workspace_changes - situation_only.workspace_changes >= finals
