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
import sys
from pathlib import Path

from .errors import DegeneracyError, InputError
from .grids import SparseSamples
from .metrics import evaluate
from .normalize import NORMALIZATION_MODES, invert_depth
from .pipeline import METHODS, NYU_CLAMP, PipelineConfig, rescale
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


def _config_from_args(args, method: str) -> PipelineConfig:
    """The one place a PipelineConfig is built from command-line flags."""
    return PipelineConfig(
        method=method,
        min_samples_linear=args.min_samples_linear,
        min_samples_planar=args.min_samples_planar,
        max_hops=args.max_hops,
        clamp=args.clamp,
        connectivity=args.connectivity,
        normalization=args.normalization,
        merge_same_label=args.merge_same_label,
    )


def _draw_samples(gt_path, n_samples, beams, seed, noise_sigma) -> SparseSamples:
    gt = io.load_depth(gt_path)
    if beams is not None:
        return synth.sample_beams(gt, beams, seed=seed, noise_sigma=noise_sigma)
    if n_samples is None:
        raise InputError("need --n-samples or --beams when sampling from ground truth")
    return synth.sample_uniform(gt, n_samples, seed, noise_sigma=noise_sigma)


def cmd_rescale(args) -> int:
    if args.manifest:
        man = io.load_manifest(args.manifest)
        base = Path(args.manifest).parent
    else:
        for flag, value in (("--depth", args.depth), ("--mask", args.mask), ("--out", args.out)):
            if value is None:
                raise InputError(f"{flag} is required without --manifest")
        if args.samples is None and args.gt is None:
            raise InputError("provide --samples, or --gt with --n-samples/--beams")
        man = io.RunManifest(
            depth_path=args.depth,
            mask_path=args.mask,
            out_depth=args.out,
            out_report=args.report or args.out + ".regions.json",
            config=_config_from_args(args, args.method),
            samples_path=args.samples,
            gt_path=args.gt,
            n_samples=args.n_samples,
            beams=args.beams,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
            already_depth=args.already_depth,
            pgm_scale=args.pgm_scale,
        )
        base = Path(".")

    def resolve(p):
        return p if p is None else str((base / p))

    depth = io.load_depth(resolve(man.depth_path), pgm_scale=man.pgm_scale)
    mask = io.load_mask(resolve(man.mask_path))
    if man.samples_path is not None:
        samples = io.load_samples(resolve(man.samples_path))
    else:
        samples = _draw_samples(
            resolve(man.gt_path), man.n_samples, man.beams, man.seed, man.noise_sigma
        )
    relative = depth if man.already_depth else invert_depth(depth)
    metric, reports = rescale(relative, mask, samples, man.config)
    io.save_depth(metric, resolve(man.out_depth))
    io.save_region_reports(reports, resolve(man.out_report))
    if args.write_manifest:
        io.save_manifest(man, args.write_manifest)
    print(f"wrote {man.out_depth} ({len(reports)} regions, {len(samples)} samples)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    pred = io.load_depth(args.pred, pgm_scale=args.pgm_scale)
    gt = io.load_depth(args.gt, pgm_scale=args.pgm_scale)
    report = evaluate(pred, gt, args.clamp)
    row = report.row(args.image_id, args.method, args.region_aware, args.n_samples, args.seed)
    for key in ("abs_rel", "rmse", "rmse_log", "log10", "d1", "d2", "d3", "n_valid"):
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
    samples = _draw_samples(args.gt, args.n_samples, args.beams, args.seed, args.noise_sigma)
    io.save_samples(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _find_scene_dirs(root: Path) -> list[Path]:
    dirs = sorted(
        d for d in root.iterdir() if d.is_dir() and ((d / "gt.dpg").exists() or (d / "gt.pfm").exists())
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
    region_aware = {"slf": True, "ssf": True, "median": True,
                    "global-linear": False, "global-median": False}
    rows = []
    for scene_index, scene_dir in enumerate(scene_dirs):
        gt, rel, mask = _load_scene_dir(scene_dir)
        image_id = scene_dir.name
        for method in args.methods:
            if method not in METHODS:
                raise InputError(f"unknown method {method!r}; choose from {METHODS}")
            cfg = _config_from_args(args, method)
            for budget in args.budgets:
                for seed in args.seeds:
                    samples = synth.sample_uniform(
                        gt, budget, [seed, scene_index, budget], noise_sigma=args.noise_sigma
                    )
                    metric, _ = rescale(rel, mask, samples, cfg)
                    report = evaluate(metric, gt, args.clamp)
                    rows.append(
                        report.row(image_id, method, region_aware[method], budget, seed)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthscale",
        description="Region-aware rescaling of relative depth maps to metric depth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rescale", help="rescale a relative depth map to metric depth")
    p.add_argument("--manifest", help="run manifest JSON; overrides all other flags")
    p.add_argument("--depth", help="model depth map (PFM/PGM/DPG)")
    p.add_argument("--mask", help="segmentation mask (PGM)")
    p.add_argument("--samples", help="sparse measurements CSV")
    p.add_argument("--gt", help="ground-truth grid to sample measurements from")
    p.add_argument("--n-samples", type=int, default=None, help="uniform sample budget from --gt")
    p.add_argument("--beams", type=int, default=None, help="scanline beams sampled from --gt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="gaussian noise added to drawn sample depths (meters)")
    p.add_argument("--method", choices=METHODS, default="slf")
    p.add_argument("--already-depth", action="store_true",
                   help="input is relative depth already; skip inverse-depth conversion")
    p.add_argument("--out", help="output metric depth path (.dpg or .pfm)")
    p.add_argument("--report", help="region report JSON path (default: <out>.regions.json)")
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
    p.add_argument("--gt", required=True)
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--beams", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
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
