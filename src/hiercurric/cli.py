"""Command-line surface: reproducible pipelines over the library modules.

Subcommands: taxonomy, synth, prepare, dedup, train, probe, sweep. All
writes land under the chosen output directory; inputs are never mutated.
Exit codes: 0 success, 2 config or validation error (images included: each
must be a finite CxHxW tensor), 3 numeric fault (every kernel output is
scanned for NaN/Inf), 4 I/O error, 130 interrupted (Ctrl-C, or SIGTERM when
run through ``entry``). Relative output paths resolve against
$HIERCURRIC_OUT when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import signal
import sys
from collections import Counter
from pathlib import Path

# `train` runs its conv work on two threads of its own, so its BLAS gets one
# per compute thread (set before numpy loads; a user's setting wins). Other
# commands keep BLAS's pool.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if sys.argv[1:2] == ["train"] and os.environ.keys().isdisjoint(_BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from . import __version__
from . import benchmark as bm
from . import config as cf
from . import curriculum as cu
from . import dataprep as dp
from . import files
from . import model as md
from . import strict, taxonomy, transfer
from .errors import NumericFault, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130

# glibc mallopt (malloc.h): M_ARENA_MAX 1, M_MMAP_THRESHOLD 256 MiB and
# M_TRIM_THRESHOLD 1 GiB, so freed memory stays in one heap for reuse
_MALLOPT = ((-8, 1), (-3, 256 << 20), (-1, 1 << 30))
_MALLOC_VARIABLES = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_",
                     "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def resolve_out(value: str) -> Path:
    path = Path(value)
    root = os.environ.get("HIERCURRIC_OUT")
    if not path.is_absolute() and root:
        path = Path(root) / path
    return path


def _image_size(text: str) -> tuple[int, ...]:
    dims = text.split("x")
    if len(dims) != 3 or not all(d.isdecimal() and int(d) > 0 for d in dims):
        raise argparse.ArgumentTypeError(
            f"expected CxHxW, three positive integers, got {text!r}")
    return tuple(map(int, dims))


# ---------------------------------------------------------------------------
# subcommands

def cmd_taxonomy(args) -> int:
    graph = taxonomy.parse_synset_file(args.synsets)
    marks = taxonomy.parse_marks_file(args.marks)
    graph = taxonomy.validate_basic_marks(graph, marks)
    labelmap = taxonomy.allocate_descendants(graph)
    hist = taxonomy.category_height_histogram(graph, mode=args.height_mode)

    out = resolve_out(args.out)
    taxonomy.labelmap_to_csv(labelmap, out / "labelmap.csv")
    files.write_csv(out / "height_histogram.csv", ["height", "count"],
                    [(h, hist[h]) for h in sorted(hist)])
    print(f"{labelmap.n_sub} leaves -> {labelmap.n_basic} basic categories")
    return EXIT_OK


def cmd_synth(args) -> int:
    # a flag left unset is absent from args and keeps the benchmark's value
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(dp.SynthSpec) if hasattr(args, f.name)}
    spec = dataclasses.replace(bm.synth_spec(args.seed), **given)
    data = dp.generate_synthetic(spec)
    out = resolve_out(args.out)
    dp.save_dataset(data, out)
    print(f"wrote {len(data.manifest)} samples to {out}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    manifest = dp.load_manifest(args.manifest)
    labelmap = taxonomy.labelmap_from_csv(args.labelmap)
    capped = dp.cap_per_category(manifest, labelmap, args.level, args.cap,
                                 args.seed)
    out = resolve_out(args.out)
    dp.save_manifest(capped, out / "capped_manifest.csv")

    counts = Counter(labelmap.basic_names[labelmap.basic_index(s.leaf_id)]
                     if args.level == "basic" else s.leaf_id for s in capped.samples)
    files.write_csv(out / "category_counts.csv", ["category", "retained"],
                    sorted(counts.items()))
    for category, retained in sorted(counts.items()):
        print(f"{category}: {retained}")
    print(f"total retained: {len(capped)} of {len(manifest)}")

    if args.splits:
        splits = dp.random_class_splits(capped, args.train_per_class,
                                        args.max_test_per_class, args.splits,
                                        args.seed if args.split_seed is None
                                        else args.split_seed)
        for i, (train, test) in enumerate(splits):
            dp.save_manifest(train, out / f"train_{i}.csv")
            dp.save_manifest(test, out / f"test_{i}.csv")
    return EXIT_OK


def cmd_dedup(args) -> int:
    man_a = dp.load_manifest(args.manifest_a)
    man_b = dp.load_manifest(args.manifest_b or args.manifest_a)
    images_a = dp.load_batch(dp.RawFileStore(args.images_a), man_a.samples)
    images_b = images_a
    if args.manifest_b or args.images_b:
        images_b = dp.load_batch(dp.RawFileStore(args.images_b or args.images_a),
                                 man_b.samples)
    matches, filtered = dp.find_overlaps(man_a, man_b, args.threshold,
                                         images_a, images_b)
    out = resolve_out(args.out)
    dp.overlap_report_csv(matches, out / "overlap.csv")
    dp.save_manifest(filtered, out / "filtered_manifest.csv")
    print(f"{len(matches)} overlap pairs; {len(filtered)} of "
          f"{len(man_a)} a-samples kept")
    return EXIT_OK


def _load_train_inputs(config):
    """The manifest, the taxonomy graph and label map, the manifest's image
    store, and the train, val and capped phase-A splits; no image is read."""
    data_cfg = config["data"]
    if "synthetic" in data_cfg:
        data = dp.generate_synthetic(cf.build_synth_spec(data_cfg["synthetic"]))
        graph = taxonomy.validate_basic_marks(data.graph, data.basic_marks)
        manifest = data.manifest
        store = dp.InMemoryStore(data.images)
    else:
        manifest = dp.load_manifest(data_cfg["manifest"])
        store = dp.RawFileStore(data_cfg["images_root"])
        graph = taxonomy.parse_synset_file(config["taxonomy"]["synsets"])
        marks = taxonomy.parse_marks_file(config["taxonomy"]["marks"])
        graph = taxonomy.validate_basic_marks(graph, marks)
    labelmap = taxonomy.allocate_descendants(graph)

    split_cfg = data_cfg["split"]
    (train, val), = dp.random_class_splits(
        manifest, split_cfg["n_train_per_class"],
        split_cfg.get("max_test_per_class", 10), 1, split_cfg["seed"])

    phase_a_train = train
    if "cap" in data_cfg:
        cap_cfg = data_cfg["cap"]
        phase_a_train = dp.cap_per_category(
            train, labelmap, cap_cfg.get("level", "basic"),
            cap_cfg["cap"], cap_cfg["seed"])
    return manifest, graph, labelmap, store, train, val, phase_a_train


def _print_shape_chain(spec: md.ModelSpec) -> None:
    for layer, shape_in, shape_out in spec.shape_chain():
        print(f"{layer.name:10s} {layer.kind:8s} {shape_in} -> {shape_out}")
    print(f"parameters: {md.parameter_count(spec)}")


def cmd_train(args) -> int:
    config = cf.load_config(args.config)
    out = resolve_out(args.out or config.get("output", {}).get("directory")
                      or _missing_out())
    manifest, graph, labelmap, store, train, val, phase_a_train = (
        _load_train_inputs(config))
    model_spec = cf.build_model_spec(config["model"], labelmap.n_sub)
    if "transfer" in config:  # the probe's splits must fit before any training
        probe = transfer.ProbeSpec(**config["transfer"])
        with strict.at("transfer"):
            dp.random_class_splits(manifest, probe.n_train_per_class,
                                   probe.max_test_per_class, probe.n_splits,
                                   probe.seed)

    sections = ([("regime", config["regime"])] if "regime" in config else
                [(f"regimes[{i}]", sec) for i, sec in enumerate(config["regimes"])])
    regimes = {sec.get("name", sec["kind"]): cf.build_regime(sec, graph, labelmap, path)
               for path, sec in sections}

    if args.dry_run:
        _print_shape_chain(model_spec)
        for name in regimes:
            print(f"regime: {name}")
        return EXIT_OK

    manifest_path = out / "MANIFEST.json"
    digest = cf.config_hash(config)
    if manifest_path.exists():
        previous = files.read_json(manifest_path)
        if not isinstance(previous, dict) or previous.get("config_hash") != digest:
            raise ValidationError(
                f"output directory {out} holds a run with a different config "
                f"hash; refusing to mix runs")

    # one load serves every phase of every regime, and the transfer probe
    loaded = manifest if "transfer" in config else manifest.subset(
        s.sample_id for split in (train, val) for s in split.samples)
    images = dp.load_batch(store, loaded.samples)
    if images.shape[1:] != model_spec.input_shape:
        raise ValidationError(f"images of shape {images.shape[1:]} do not fit "
                              f"model input_shape {model_spec.input_shape}")
    bundle = cu.DataBundle(train=train, val=val, phase_a_train=phase_a_train,
                           labelmap=labelmap, graph=graph, images=images,
                           rows=loaded.positions(), model_spec=model_spec,
                           init=config["model"].get("init", "fixed"))
    del store  # a synthetic store's image dict is not kept past the load
    # written once the images load, so a failed load leaves no run behind
    files.write_json(manifest_path, {"config_hash": digest,
                                     "code_version": __version__, "config": config})

    run_dirs = {name: out if "regime" in config else out / name for name in regimes}
    # regimes run in turn on the main thread, so each step's conv work has the
    # conv worker's second core (nnkernel._two_chains); the transfer probe
    # reloads each final checkpoint's weights from its file, one at a time
    finals = {}
    for name, regime in regimes.items():
        # the trained model is dropped here, not held while the next regime trains
        report = cu.run_regime(regime, bundle, out_dir=run_dirs[name])[1]
        report.checkpoints = [str(Path(p).relative_to(out))
                              for p in report.checkpoints]
        cu.save_run_report(report, run_dirs[name])
        print(f"{name}: " + " ".join(
            f"{k}={v:.4f}" for k, v in sorted(report.final.items())), flush=True)
        if "transfer" in config:
            finals[name] = out / report.checkpoints[-1]

    if "transfer" in config:
        results = transfer.evaluate_probe(map(md.load_checkpoint, finals.values()),
                                          manifest, bundle.images, [probe], labelmap)
        for name, result in zip(finals, results):
            transfer.save_probe_result(result, run_dirs[name] / "transfer")
            print(f"{name}: probe mean_class_recall="
                  f"{result.aggregate['mean']:.4f}")
    return EXIT_OK


def _missing_out():
    raise ValidationError("no output directory: pass --out or set "
                          "output.directory in the config")


def _probe_inputs(args, specs):
    """Manifest, its images loaded once, label map (None if not given) and
    one probe spec per ``--n-train`` value, shared by probe and sweep.
    ``--layer`` is checked against every checkpoint's spec before any load."""
    for spec in specs:
        transfer.feature_layer(spec, args.layer)
    labelmap = (taxonomy.labelmap_from_csv(args.labelmap)
                if args.labelmap else None)
    specs = [transfer.ProbeSpec(
        n_train_per_class=n_train, max_test_per_class=args.max_test,
        n_splits=args.splits, seed=args.seed, iters=args.iters,
        layer=args.layer) for n_train in args.n_train]
    manifest = dp.load_manifest(args.manifest)
    images = dp.load_batch(dp.RawFileStore(args.images), manifest.samples)
    return manifest, images, labelmap, specs


def cmd_probe(args) -> int:
    if len(set(args.n_train)) < len(args.n_train):
        raise ValidationError(f"--n-train values repeat: {args.n_train}")
    ckpt = md.load_checkpoint(args.checkpoint)
    manifest, images, labelmap, specs = _probe_inputs(args, [ckpt.spec])
    out = resolve_out(args.out)
    rows = []
    for result in transfer.evaluate_probe([ckpt], manifest, images, specs, labelmap):
        n_train = result.n_train_per_class
        transfer.save_probe_result(result, out / f"n{n_train}")
        rows.append((n_train, repr(result.aggregate["mean"]),
                     repr(result.aggregate["std"])))
        print(f"n_train={n_train}: mean_class_recall="
              f"{result.aggregate['mean']:.4f}")
    files.write_csv(out / "aggregates.csv",
                    ["n_train_per_class", "mean_class_recall", "std"], rows)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if len(args.n_train) > 1:
        raise ValidationError("sweep takes one --n-train")
    # manifests serve the sort and --layer; weights load one checkpoint at a time
    found = [(*md.load_checkpoint_manifest(p), p) for p in args.checkpoints]
    found.sort(key=lambda f: f[1])  # by iteration
    manifest, images, labelmap, (spec,) = _probe_inputs(
        args, [model_spec for model_spec, _, _ in found])
    report = cu.checkpoint_sweep(map(md.load_checkpoint, [p for _, _, p in found]),
                                 manifest, images, spec, labelmap)
    out = resolve_out(args.out)
    cu.save_run_report(report, out)
    print(f"swept {len(found)} checkpoints -> {out / 'curves.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiercurric",
        description="Basic-level-first curriculum training toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("taxonomy", help="derive the leaf-to-basic label map")
    p.add_argument("--synsets", required=True)
    p.add_argument("--marks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--height-mode", choices=["longest", "shortest"],
                   default="longest")
    p.set_defaults(func=cmd_taxonomy)

    p = sub.add_parser("synth", help="generate a synthetic dataset",
                       description="Unset flags take the benchmark's values.",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n-basic", type=int)
    p.add_argument("--subs-per-basic", type=int)
    p.add_argument("--image-size", type=_image_size)
    p.add_argument("--prototype-scale", type=float)
    p.add_argument("--subordinate-scale", type=float)
    p.add_argument("--noise-scale", type=float)
    p.add_argument("--samples-per-sub", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="cap categories and cut splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--labelmap", required=True)
    p.add_argument("--level", choices=["basic", "sub"], default="basic")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--splits", type=int, default=0)
    p.add_argument("--train-per-class", type=int, default=30)
    p.add_argument("--max-test-per-class", type=int, default=50)
    p.add_argument("--split-seed", type=int, default=None)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("dedup", help="find near-duplicates across two sets")
    p.add_argument("--manifest-a", required=True)
    p.add_argument("--images-a", required=True)
    p.add_argument("--manifest-b")
    p.add_argument("--images-b")
    p.add_argument("--threshold", type=float,
                   default=dp.DEFAULT_OVERLAP_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("train", help="run a regime from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="overrides output.directory")
    p.add_argument("--dry-run", action="store_true",
                   help="validate and print the shape chain, then stop")
    p.set_defaults(func=cmd_train)

    # probe and sweep read the same data and probe settings
    probing = argparse.ArgumentParser(add_help=False)
    probing.add_argument("--manifest", required=True)
    probing.add_argument("--images", required=True)
    probing.add_argument("--labelmap", default=None)
    probing.add_argument("--max-test", type=int, default=50)
    probing.add_argument("--splits", type=int, default=3)
    probing.add_argument("--seed", type=int, required=True)
    probing.add_argument("--iters", type=int, default=1000)
    probing.add_argument("--layer", default=None)
    probing.add_argument("--out", required=True)

    p = sub.add_parser("probe", parents=[probing],
                       help="frozen-feature probe on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-train", type=int, action="append", required=True,
                   help="repeatable: one probe per value")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep", parents=[probing],
                       help="probe a series of checkpoints")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--n-train", type=int, action="append", required=True,
                   help="one value; given twice is an error")
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed memory mapped for reuse, so a training step's large
    temporaries are not unmapped or trimmed, then faulted in and zeroed
    again the next step. A user's malloc setting wins; no-op where libc has
    no ``mallopt``."""
    if not os.environ.keys().isdisjoint(_MALLOC_VARIABLES):
        return
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        # missing inputs are an invocation problem, not an I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry() -> None:
    # SIGTERM ends a run as Ctrl-C does; main installs no handler, so an
    # in-process caller keeps its own
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())


if __name__ == "__main__":
    entry()
