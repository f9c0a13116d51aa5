"""Command-line entry point.

Subcommands wire the library into the standard workflows: learn a model from
an annotated directory, search a single image (with optional trace and SVG
snapshots), run the cross-validated benchmark over the method matrix,
generate a synthetic dataset, compute a salience map, and evaluate an
external proposal set.

Exit codes: 0 success, 1 validation error, 2 IO/parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, search
from .datagen import (
    GENERATOR_CONFIG_NAME,
    default_generator_config,
    generate_synthetic,
    load_annotation,
    load_dataset,
    load_generator_config,
    render_annotation_image,
    save_annotation,
    save_generator_config,
)
from .errors import InvalidInputError, ParseError, SituSearchError
from .geometry import normalize_frame
from .images import read_pnm, write_pgm
from .salience import compute_salience, save_salience
from .search import evaluate_proposal_set, run_image
from .seeding import stable_seed
from .situation_model import DEFAULT_CATEGORIES, learn, load_model, save_model


def _add_common_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-iter", type=int, default=None, help="iteration budget per image")
    sub.add_argument(
        "--cell-size", type=float, default=1.0, help="location-grid cell size in scaled pixels"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="situsearch",
        description="Situation-conditioned active object localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit a situation model from an annotation directory")
    p.add_argument("--data", required=True, help="directory of annotation JSON files")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("run", help="search one annotated image with a learned model")
    p.add_argument("--model", required=True, help="model JSON from `learn`")
    p.add_argument("--image-annotation", required=True, help="annotation JSON for the test image")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method",
        default="uniform-learned-learned",
        help="method token (see `bench --methods`)",
    )
    p.add_argument("--trace", default=None, help="write each proposal as JSONL as it is scored")
    p.add_argument("--snapshots", default=None, help="directory for per-change Workspace SVGs")
    _add_common_run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="cross-validated benchmark over the method matrix")
    p.add_argument("--data", required=True, help="directory of annotation JSON files")
    p.add_argument(
        "--methods",
        default="all",
        help="comma-separated method tokens, or 'all' for the full matrix",
    )
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common_run_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic annotated dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="number of images")
    p.add_argument(
        "--seed", type=int, default=None, help="generator seed (default: the config's, else 0)"
    )
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument(
        "--config", default=None, help="generator config JSON (overrides width/height)"
    )
    p.add_argument(
        "--images", action="store_true", help="also render PGM images for salience methods"
    )
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("salience", help="compute a salience map from a PGM/PPM image")
    p.add_argument("--image", required=True, help="input image (P2/P3/P5/P6 netpbm)")
    p.add_argument("--out", required=True, help="output salience map path")
    p.add_argument("--cell-size", type=float, default=1.0)
    p.set_defaults(func=cmd_salience)

    p = sub.add_parser(
        "eval-proposals", help="evaluate an external category-free proposal set"
    )
    p.add_argument(
        "--proposals", required=True, help='JSONL file, one {"x","y","w","h"} box per line'
    )
    p.add_argument("--image-annotation", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1000)
    p.set_defaults(func=cmd_eval_proposals)

    return parser


def cmd_learn(args: argparse.Namespace) -> int:
    annotations = load_dataset(args.data)
    model = learn(annotations)
    save_model(model, args.out)
    print(json.dumps({"model": args.out, "annotations": len(annotations)}))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    annotation = load_annotation(args.image_annotation)
    config = evaluation.config_for_token(args.method, args.max_iter, args.cell_size)

    salience = None
    if config.needs_salience:
        salience = evaluation.salience_for_annotation(annotation, config.cell_size)

    frame = normalize_frame(annotation.width, annotation.height)
    ground_truth = search.ground_truth(annotation, DEFAULT_CATEGORIES, frame)
    observer = None
    if args.snapshots:
        snap_dir = Path(args.snapshots)
        snap_dir.mkdir(parents=True, exist_ok=True)
        from .charts import workspace_snapshot_svg

        count = [0]

        def observer(iteration, workspace, dists):
            count[0] += 1
            path = snap_dir / f"snapshot_{count[0]:04d}_iter{iteration:05d}.svg"
            path.write_text(
                workspace_snapshot_svg(frame, ground_truth, workspace, dists, iteration)
            )

    rng = np.random.default_rng(stable_seed(args.seed, "run", annotation.image_id))
    with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace:
        scorer = None
        if trace is not None:
            iterations = itertools.count(1)

            def scorer(p):
                # Through the module attribute, which the benchmark tracer patches.
                score = search.score_proposal(ground_truth, p)
                box = {"cx": p.box.cx, "cy": p.box.cy, "w": p.box.w, "h": p.box.h}
                line = {"iteration": next(iterations), "category": p.category, "box": box}
                trace.write(json.dumps({**line, "score": score}) + "\n")
                return score

        result = run_image(
            model, salience, config, annotation, rng, scorer=scorer, observer=observer
        )
    print(json.dumps(result.to_dict(), sort_keys=True))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    tokens = evaluation.expand_method_spec(args.methods)
    dataset = load_dataset(args.data)

    def progress(done: int, total: int) -> None:
        if done % 25 == 0 or done == total:
            print(f"[bench] {done}/{total} image runs", file=sys.stderr)

    report = evaluation.run_experiment(
        dataset,
        tokens,
        k=args.folds,
        master_seed=args.seed,
        jobs=args.jobs,
        max_iterations=args.max_iter,
        cell_size=args.cell_size,
        progress=progress,
    )
    evaluation.emit_report(report, args.out)
    summary = {
        "out": args.out,
        "num_images": report.num_images,
        "folds": report.folds,
        "methods": [
            {
                "label": m.label,
                "median": m.median,
                "failures": m.failure_count,
                "t01": m.interval_medians[0],
                "t12": m.interval_medians[1],
                "t23": m.interval_medians[2],
            }
            for m in report.methods
        ],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.config:
        config = load_generator_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    else:
        seed = 0 if args.seed is None else args.seed
        config = default_generator_config(width=args.width, height=args.height, seed=seed)
    annotations = generate_synthetic(config, args.n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_generator_config(config, out / GENERATOR_CONFIG_NAME)
    for ann in annotations:
        if args.images:
            image_name = f"{ann.image_id}.pgm"
            write_pgm(out / image_name, render_annotation_image(ann))
            ann = replace(ann, image_path=image_name)
        save_annotation(ann, out / f"{ann.image_id}.json")
    print(json.dumps({"out": str(out), "n": len(annotations)}))
    return 0


def cmd_salience(args: argparse.Namespace) -> int:
    image = read_pnm(args.image)
    frame = normalize_frame(image.shape[1], image.shape[0])
    salience = compute_salience(image, frame, cell_size=args.cell_size)
    save_salience(salience, args.out)
    print(json.dumps({"out": args.out, "rows": salience.grid.shape[0], "cols": salience.grid.shape[1]}))
    return 0


def cmd_eval_proposals(args: argparse.Namespace) -> int:
    annotation = load_annotation(args.image_annotation)
    proposals = []
    with open(args.proposals) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                box = (float(doc["x"]), float(doc["y"]), float(doc["w"]), float(doc["h"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{args.proposals}:{lineno}: bad proposal line ({exc})") from exc
            if not all(map(math.isfinite, box)) or box[2] <= 0 or box[3] <= 0:
                raise InvalidInputError(
                    f"{args.proposals}:{lineno}: box {box} is empty or not finite"
                )
            proposals.append(box)
    rng = np.random.default_rng(stable_seed(args.seed, "eval-proposals", annotation.image_id))
    result = evaluate_proposal_set(proposals, annotation, budget=args.budget, rng=rng)
    print(json.dumps(result.to_dict(), sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SituSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
