"""Command-line entry points for rescaling, evaluation, and benchmarks.

Subcommands:

  rescale    run the pipeline on one image (flags or a run manifest)
  evaluate   compare a metric prediction against ground truth
  synth      materialize a synthetic scene from a JSON spec
  sample     draw uniform or beam samples from a ground-truth grid
  bench      sweep methods x budgets x seeds over a scene directory

Exit codes: 0 success, 2 input error, 3 numerical degeneracy that
exhausted the fallback chain.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import DegeneracyError, InputError
from .grids import SparseSamples
from .metrics import METRIC_COLUMNS, evaluate
from .normalize import NORMALIZATION_MODES, invert_depth
from .pipeline import GLOBAL_METHODS, METHODS, NYU_CLAMP, PipelineConfig, rescale
from . import io
from . import synth

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _parse_clamp(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected 'min,max', got {text!r}") from err
    return lo, hi


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from err


def _parse_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    default = PipelineConfig()
    parser.add_argument("--min-samples-linear", type=int, default=default.min_samples_linear,
                        help="own-region sample floor for scale+shift fits")
    parser.add_argument("--min-samples-planar", type=int, default=default.min_samples_planar,
                        help="own-region sample floor for surface fits")
    parser.add_argument("--connectivity", type=int, choices=(4, 8), default=default.connectivity,
                        help="pixel adjacency for regions and their graph")
    parser.add_argument("--clamp", type=_parse_clamp, default=default.clamp,
                        help="output depth range 'min,max' in meters (default NYU 0.001,10; VOID uses 0.2,5)")
    parser.add_argument("--normalization", choices=NORMALIZATION_MODES, default=default.normalization,
                        help="pre-fit normalization of the relative map")
    parser.add_argument("--merge-same-label", action="store_true",
                        help="keep same-label pixels in one region even when disconnected")
    parser.add_argument("--max-hops", type=int, default=default.max_hops,
                        help="cap on neighbor-expansion rings (default: unlimited)")


def _add_sample_flags(parser: argparse.ArgumentParser, gt_required: bool) -> None:
    parser.add_argument("--gt", dest="gt_path", required=gt_required,
                        help="ground-truth grid to sample measurements from")
    parser.add_argument("--n-samples", type=int, default=None, help="uniform sample budget from --gt")
    parser.add_argument("--beams", type=int, default=None, help="scanline beams sampled from --gt")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-sigma", type=float, default=0.0,
                        help="gaussian noise added to drawn sample depths (meters)")


def _fields_from(args, cls) -> dict:
    """The parsed flags whose destination is a field of dataclass `cls`, by field name."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _config_from_args(args, method: str) -> PipelineConfig:
    """The one place a PipelineConfig is built from command-line flags."""
    return PipelineConfig(**{**_fields_from(args, PipelineConfig), "method": method})


def _draw_samples(source) -> SparseSamples:
    """Samples drawn as the sampling fields of a RunManifest or of parsed flags say."""
    if source.gt_path is None or (source.n_samples is None and source.beams is None):
        raise InputError("no sample source: need samples_path (--samples), or gt_path (--gt) "
                         "with n_samples (--n-samples) or beams (--beams)")
    gt = io.load_depth(source.gt_path)
    if source.beams is not None:
        return synth.sample_beams(gt, source.beams, seed=source.seed, noise_sigma=source.noise_sigma)
    return synth.sample_uniform(gt, source.n_samples, source.seed, noise_sigma=source.noise_sigma)


def _rebase_paths(man: io.RunManifest, rebase) -> io.RunManifest:
    """`man` with each relative path p replaced by `rebase(p)`."""
    return replace(man, **{
        f: rebase(p) for f in io.PATH_FIELDS
        if (p := getattr(man, f)) is not None and not os.path.isabs(p)
    })


def cmd_rescale(args) -> int:
    # A manifest's relative paths are read against its own directory.
    if args.manifest:
        home = Path(args.manifest).parent
        man = _rebase_paths(io.load_manifest(args.manifest), lambda p: str(home / p))
    else:
        # RunManifest rejects a missing --out before it reads this default
        man = io.RunManifest(**{
            **_fields_from(args, io.RunManifest),
            "config": _config_from_args(args, args.method),
            "out_report": args.out_report or f"{args.out_depth}.regions.json",
        })

    relative = io.load_depth(man.depth_path, pgm_scale=man.pgm_scale)
    mask = io.load_mask(man.mask_path)
    if man.samples_path is not None:
        samples = io.load_samples(man.samples_path)
    else:
        samples = _draw_samples(man)
    if not man.already_depth:
        relative = invert_depth(relative)  # the model's inverse depth is dropped here
    metric, reports = rescale(relative, mask, samples, man.config)
    io.save_depth(metric, man.out_depth)
    io.save_region_reports(reports, man.out_report)
    if args.write_manifest:
        home = Path(args.write_manifest).parent
        written = _rebase_paths(man, lambda p: os.path.relpath(p, home))
        io.save_manifest(written, args.write_manifest)
    print(f"wrote {man.out_depth} ({len(reports)} regions, {len(samples)} samples)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    pred = io.load_depth(args.pred, pgm_scale=args.pgm_scale)
    gt = io.load_depth(args.gt, pgm_scale=args.pgm_scale)
    report = evaluate(pred, gt, args.clamp)
    row = report.row(args.image_id, args.method, args.region_aware, args.n_samples, args.seed)
    for key in METRIC_COLUMNS:
        print(f"{key} {row[key]}")
    if args.out:
        io.save_report([row], args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synth.load_scene_spec(args.spec)
    gt, rel, mask = synth.generate_scene(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = args.grid_format
    io.save_depth(gt, out_dir / f"gt.{ext}")
    io.save_depth(rel, out_dir / f"rel.{ext}")
    io.save_mask(mask, out_dir / "mask.pgm")
    synth.save_scene_spec(spec, out_dir / "spec.json")
    print(f"wrote scene to {out_dir} ({spec.n_regions} regions, {spec.height}x{spec.width})")
    return EXIT_OK


def cmd_sample(args) -> int:
    samples = _draw_samples(args)
    io.save_samples(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _find_scene_dirs(root: Path) -> list[Path]:
    try:
        found = list(root.iterdir())
    except FileNotFoundError as err:
        raise InputError(f"no such file: {root}") from err
    except NotADirectoryError as err:
        raise InputError(f"not a directory: {root}") from err
    dirs = sorted(
        d for d in found if d.is_dir() and ((d / "gt.dpg").exists() or (d / "gt.pfm").exists())
    )
    if not dirs:
        raise InputError(f"no scene directories under {root}")
    return dirs


def _load_scene_dir(scene_dir: Path):
    ext = "dpg" if (scene_dir / "gt.dpg").exists() else "pfm"
    gt = io.load_depth(scene_dir / f"gt.{ext}")
    rel = io.load_depth(scene_dir / f"rel.{ext}")
    mask = io.load_mask(scene_dir / "mask.pgm")
    return gt, rel, mask


def cmd_bench(args) -> int:
    scene_dirs = _find_scene_dirs(Path(args.scene_dir))
    rows = []
    for scene_index, scene_dir in enumerate(scene_dirs):
        gt, rel, mask = _load_scene_dir(scene_dir)
        image_id = scene_dir.name
        for method in args.methods:
            cfg = _config_from_args(args, method)
            for budget in args.budgets:
                for seed in args.seeds:
                    samples = synth.sample_uniform(
                        gt, budget, [seed, scene_index, budget], noise_sigma=args.noise_sigma
                    )
                    metric, _ = rescale(rel, mask, samples, cfg)
                    report = evaluate(metric, gt, args.clamp)
                    rows.append(
                        report.row(image_id, method, method not in GLOBAL_METHODS, budget, seed)
                    )
        for beams in args.beams:
            cfg = _config_from_args(args, "global-linear")
            for seed in args.seeds:
                samples = synth.sample_beams(
                    gt, beams, seed=[seed, scene_index], noise_sigma=args.noise_sigma
                )
                metric, _ = rescale(rel, mask, samples, cfg)
                report = evaluate(metric, gt, args.clamp)
                rows.append(
                    report.row(image_id, f"lf-lidar-{beams}beam", False, len(samples), seed)
                )
    io.save_report(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="depthscale",
        description="Region-aware rescaling of relative depth maps to metric depth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rescale", help="rescale a relative depth map to metric depth")
    p.add_argument("--manifest", help="run manifest JSON; overrides all other flags")
    # Each flag that fills a RunManifest field stores under the field's name.
    p.add_argument("--depth", dest="depth_path", help="model depth map (PFM/PGM/DPG)")
    p.add_argument("--mask", dest="mask_path", help="segmentation mask (PGM)")
    p.add_argument("--samples", dest="samples_path", help="sparse measurements CSV")
    _add_sample_flags(p, gt_required=False)
    p.add_argument("--method", choices=METHODS, default="slf")
    p.add_argument("--already-depth", action="store_true",
                   help="input is relative depth already; skip inverse-depth conversion")
    p.add_argument("--out", dest="out_depth", help="output metric depth path (.dpg or .pfm)")
    p.add_argument("--report", dest="out_report", help="region report JSON path (default: <out>.regions.json)")
    p.add_argument("--write-manifest", help="also write the equivalent run manifest here")
    p.add_argument("--pgm-scale", type=float, default=None,
                   help="divisor for integer PGM depths (default: sidecar, then 1000)")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("evaluate", help="compare a metric prediction against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--clamp", type=_parse_clamp, default=NYU_CLAMP,
                   help="ground-truth evaluation range 'min,max' in meters")
    p.add_argument("--out", help="append the result as a CSV report row")
    p.add_argument("--pgm-scale", type=float, default=None,
                   help="divisor for integer PGM depths (default: sidecar, then 1000)")
    p.add_argument("--image-id", default="-")
    p.add_argument("--method", default="-")
    p.add_argument("--region-aware", action="store_true")
    p.add_argument("--n-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="materialize a synthetic scene from a JSON spec")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--grid-format", choices=("dpg", "pfm"), default="dpg")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="draw sparse measurements from a ground-truth grid")
    _add_sample_flags(p, gt_required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bench", help="sweep methods x budgets x seeds over synthetic scenes")
    p.add_argument("--scene-dir", required=True, help="directory of scene subdirectories")
    p.add_argument("--methods", type=_parse_str_list, default=["slf", "ssf"])
    p.add_argument("--budgets", type=_parse_int_list, default=[250, 500, 1000, 2000])
    p.add_argument("--seeds", type=_parse_int_list, default=[0, 1, 2, 3, 4])
    p.add_argument("--beams", type=_parse_int_list, default=[],
                   help="extra non-region-aware scanline baselines, e.g. 1,16,32")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except DegeneracyError as err:
        print(f"degenerate: {err}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
