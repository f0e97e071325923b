"""Command-line interface: synth | targets | construct | evaluate | loss.

Every subcommand exits 0 on success and nonzero with a single-line
diagnostic on stderr when validation or processing fails.
"""

from __future__ import annotations

import argparse
import sys

from . import bundle
from .assignment import MODES, build_targets
from .fields import default_level_specs
from .metrics import evaluate_panoptic
from .pipeline import ASSEMBLY_MODES, ConstructionParams, compute_loss_report, construct_panoptic
from .synth import SHAPES, NoiseConfig, SceneConfig, generate_scene, ideal_predictions, perturb


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic scene (and optional predictions)")
    p.add_argument("--out", required=True, help="output scene bundle directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--thing-classes", type=int, default=3)
    p.add_argument("--stuff-classes", type=int, default=3)
    p.add_argument("--max-same-iou", type=float, default=0.3)
    p.add_argument("--max-cross-iou", type=float, default=None,
                   help="pairwise cap across classes; 0 forces disjoint boxes")
    p.add_argument("--shape", choices=SHAPES, default="rectangle")
    p.add_argument("--min-size", type=int, default=16)
    p.add_argument("--max-size", type=int, default=56)
    p.add_argument("--centered", action="store_true",
                   help="small disjoint rectangles centered on receptive centers")
    p.add_argument("--min-stuff-area", type=int, default=0)
    p.add_argument("--preds-out", help="also write a prediction bundle here")
    p.add_argument("--mode", choices=MODES, default="full",
                   help="supervision mode for the prediction bundle")
    p.add_argument("--levels", type=int, default=5, help="pyramid levels in predictions")
    p.add_argument("--noise-offset-std", type=float, default=0.0)
    p.add_argument("--noise-semantic-flip", type=float, default=0.0)
    p.add_argument("--noise-centerness-std", type=float, default=0.0)
    p.add_argument("--noise-levelness-flip", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)


def cmd_synth(args) -> int:
    noise = NoiseConfig(offset_std=args.noise_offset_std, semantic_flip_prob=args.noise_semantic_flip,
                        centerness_std=args.noise_centerness_std,
                        levelness_flip_prob=args.noise_levelness_flip, seed=args.noise_seed)
    cfg = SceneConfig(width=args.width, height=args.height, instances=args.instances,
                      thing_classes=args.thing_classes, stuff_classes=args.stuff_classes,
                      max_same_class_iou=args.max_same_iou,
                      max_cross_class_iou=args.max_cross_iou,
                      shape=args.shape, min_size=args.min_size, max_size=args.max_size,
                      centered=args.centered, min_stuff_area=args.min_stuff_area,
                      seed=args.seed)
    scene = generate_scene(cfg)
    bundle.save_scene(args.out, scene)
    print(f"scene: {scene.n_instances} instances, "
          f"{scene.n_stuff} stuff + {scene.n_things} thing classes -> {args.out}")
    if args.preds_out:
        pred = ideal_predictions(scene, default_level_specs(args.levels), mode=args.mode)
        pred = perturb(pred, noise)
        bundle.save_predictions(args.preds_out, pred)
        print(f"predictions ({args.mode}, {args.levels} levels) -> {args.preds_out}")
    return 0


def _add_targets(sub):
    p = sub.add_parser("targets", help="build training targets from a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--levels", type=int, default=5)
    p.set_defaults(func=cmd_targets)


def cmd_targets(args) -> int:
    scene = bundle.load_scene(args.scene)
    specs = default_level_specs(args.levels)
    level_targets, global_targets = build_targets(scene, specs, mode=args.mode)
    tb = bundle.TargetBundle(level_targets=level_targets, global_targets=global_targets,
                             gt_boxes=scene.boxes, gt_classes=scene.instance_classes,
                             gt_instances_quarter=scene.quarter_instance_map(),
                             specs=specs, n_stuff=scene.n_stuff, n_things=scene.n_things,
                             image_hw=(scene.height, scene.width), mode=args.mode)
    bundle.save_targets(args.out, tb)
    fg = sum(int(t.foreground.sum()) for t in level_targets)
    print(f"targets ({args.mode}): {fg} foreground locations over "
          f"{len(specs)} levels -> {args.out}")
    return 0


def _add_construct(sub):
    p = sub.add_parser("construct", help="run the full panoptic construction")
    p.add_argument("--preds", required=True)
    p.add_argument("--out", required=True)
    d = ConstructionParams()
    p.add_argument("--sigma", type=float, default=d.sigma)
    p.add_argument("--nms-iou", type=float, default=d.nms_iou)
    p.add_argument("--score-thresh", type=float, default=d.score_thresh)
    p.add_argument("--topk", type=int, default=d.topk_per_level)
    p.add_argument("--assembly", choices=ASSEMBLY_MODES, default=d.assembly)
    p.add_argument("--stuff-area-min", type=int, default=d.stuff_area_min)
    p.add_argument("--threads", type=int, default=d.threads)
    p.add_argument("--ppm", action="store_true", help="also write a colorized view.ppm")
    p.set_defaults(func=cmd_construct)


def cmd_construct(args) -> int:
    pred = bundle.load_predictions(args.preds)
    params = ConstructionParams(sigma=args.sigma, nms_iou=args.nms_iou,
                                score_thresh=args.score_thresh, topk_per_level=args.topk,
                                assembly=args.assembly, stuff_area_min=args.stuff_area_min,
                                threads=args.threads)
    pmap, queries = construct_panoptic(pred, params)
    bundle.save_panoptic(args.out, pmap, pred.n_stuff, pred.n_things, write_view=args.ppm)
    things = sum(1 for s in pmap.segments if s.segment_id != 0)
    print(f"panoptic: {len(queries)} queries -> {things} instance segments, "
          f"{len(pmap.segments) - things} stuff segments -> {args.out}")
    return 0


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="panoptic quality of a prediction vs ground truth")
    p.add_argument("--pred", required=True, help="panoptic archive")
    p.add_argument("--gt", required=True, help="scene bundle or panoptic archive")
    p.add_argument("--out", help="optional file for the text report")
    p.set_defaults(func=cmd_evaluate)


def _load_panoptic_or_scene(path):
    tensors, meta = bundle.read_bundle(path)
    kind = meta.get("kind")
    if kind == "scene":
        scene = bundle.decode_scene(tensors, meta, path)
        return scene.panoptic, scene.n_stuff, scene.n_things
    if kind == "panoptic":
        pmap, meta = bundle.decode_panoptic(tensors, meta, path)
        return pmap, meta["n_stuff"], meta["n_things"]
    raise ValueError(f"{path}: expected a scene bundle or panoptic archive, got {kind!r}")


def cmd_evaluate(args) -> int:
    pred, pn_stuff, pn_things = _load_panoptic_or_scene(args.pred)
    gt, n_stuff, n_things = _load_panoptic_or_scene(args.gt)
    if (pn_stuff, pn_things) != (n_stuff, n_things):
        raise ValueError("prediction and ground truth class counts disagree")
    report = evaluate_panoptic(pred, gt, n_stuff, n_things)
    text = report.format()
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def _add_loss(sub):
    p = sub.add_parser("loss", help="forward losses of predictions against targets")
    p.add_argument("--preds", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--lambda", dest="semantic_weight", type=float, default=1.0,
                   help="weight of the semantic loss in the total")
    d = ConstructionParams()
    p.add_argument("--nms-iou", type=float, default=d.nms_iou)
    p.add_argument("--score-thresh", type=float, default=d.score_thresh)
    p.set_defaults(func=cmd_loss)


def cmd_loss(args) -> int:
    pred = bundle.load_predictions(args.preds)
    targets = bundle.load_targets(args.targets)
    params = ConstructionParams(nms_iou=args.nms_iou, score_thresh=args.score_thresh)
    report = compute_loss_report(pred, targets, semantic_weight=args.semantic_weight,
                                 params=params)
    print(report.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densepanoptic",
        description="panoptic segmentation from dense detections: synthesis, "
                    "targets, construction, evaluation, losses")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_targets(sub)
    _add_construct(sub)
    _add_evaluate(sub)
    _add_loss(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
