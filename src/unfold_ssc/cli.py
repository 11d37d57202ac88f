"""Batch command-line interface.

Subcommands: ``run`` (full pipeline), ``cluster`` (spectral clustering from
a saved coefficient matrix), ``eval`` (metrics on saved label files), and
``gen`` (synthetic data).

Configuration is JSON. Precedence: command-line flags over config-file keys
over dataset-preset values over built-in defaults. Validation reports every
problem at once, and unknown keys are errors. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numerical failure.

Heavy imports are deferred into the command handlers so that ``--help``,
``--version`` and config errors stay fast: importing this module alone takes
a process 0.06 s, against 0.5 s with every module (median of 5, 2-core Xeon).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass

from unfold_ssc import __version__
from unfold_ssc.errors import ConfigError, DataError, NumericalError

PRESETS = {
    "salinas": {
        "patch": 7, "k_clusters": 6, "rho0": 0.1, "admm_layers": 2,
        "alpha": 40.0, "beta": 0.1, "gamma": 0.0001, "rho_theta_lr_mult": 1.0,
    },
    "indian_pines": {
        "patch": 7, "k_clusters": 4, "rho0": 0.9, "admm_layers": 3,
        "alpha": 40.0, "beta": 0.3, "gamma": 0.0003, "rho_theta_lr_mult": 10.0,
    },
    "paviau": {
        "patch": 13, "k_clusters": 8, "rho0": 0.5, "admm_layers": 3,
        "alpha": 40.0, "beta": 1.3, "gamma": 0.01, "rho_theta_lr_mult": 10.0,
    },
}

MODES = ("unfold", "classic", "kmeans-baseline")

# Every name a run may write into out_dir; nothing else there is touched.
ARTIFACTS = (
    "labels.csv", "truth.csv", "metrics.json", "loss_history.csv",
    "pretrain_history.csv", "similarity.sscm", "checkpoint", "label_map.ppm",
    "run_manifest.json",
)

# 12 well-separated colors for the cluster map; label color = palette[label % 12].
PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (170, 110, 40), (0, 128, 128), (250, 190, 212),
)


@dataclass
class RunConfig:
    values_path: str | None = None
    labels_path: str | None = None
    dataset: str | None = None
    mode: str = "unfold"
    out_dir: str = "ssc_out"
    seed: int = 0
    k_clusters: int | None = None
    patch: int = 7
    knn_init: int = 30
    knn_struct: int = 10
    alpha: float = 10.0
    beta: float = 0.01
    gamma: float = 1e-5
    rho0: float = 0.5
    admm_layers: int = 3
    threshold0: float = 0.005
    pretrain_epochs: int = 400
    joint_epochs: int = 600
    learning_rate: float = 1e-3
    rho_theta_lr_mult: float = 1.0
    latent_dim: int = 32
    hidden_dims: tuple = (256, 64)
    classic_lambda: float = 0.1
    classic_rho: float = 1.0
    classic_iterations: int = 200


# JSON and flag integers are unbounded; numpy's stop at int64.
INT_LIMIT = 2**63


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and -INT_LIMIT <= v < INT_LIMIT


def _is_num(v):
    try:  # math.isfinite converts an int, which can overflow a float
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _int_from(low: int):
    return lambda v: _is_int(v) and v >= low, f"must be an integer from {low} to 2**63 - 1"


def _flag_errors(flags: dict, low: int) -> list:
    return [f"--{flag}: must be an integer from {low} to 2**63 - 1 (got {_clip(str(value))})"
            for flag, value in flags.items() if not low <= value < INT_LIMIT]


def _clip(text: str, limit: int = 24) -> str:
    """A rejected value as an error message echoes it: at most ``limit`` characters."""
    return text if len(text) <= limit else text[:limit] + "\u2026"


_CHECKS = {
    "values_path": (lambda v: isinstance(v, str) and v, "must be a non-empty path string"),
    "labels_path": (lambda v: isinstance(v, str) and v, "must be a non-empty path string"),
    "dataset": (lambda v: isinstance(v, str) and v in PRESETS,
                f"must be one of {sorted(PRESETS)}"),
    "mode": (lambda v: v in MODES, f"must be one of {MODES}"),
    "out_dir": (lambda v: isinstance(v, str) and v, "must be a non-empty path string"),
    "seed": _int_from(0),
    "k_clusters": _int_from(2),
    "patch": (lambda v: _is_int(v) and v >= 1 and v % 2 == 1,
              "must be an odd integer from 1 to 2**63 - 1"),
    "knn_init": _int_from(1),
    "knn_struct": _int_from(1),
    "alpha": (lambda v: _is_num(v) and v >= 0, "must be a non-negative number"),
    "beta": (lambda v: _is_num(v) and v >= 0, "must be a non-negative number"),
    "gamma": (lambda v: _is_num(v) and v >= 0, "must be a non-negative number"),
    "rho0": (lambda v: _is_num(v) and v > 0, "must be a positive number"),
    "admm_layers": _int_from(1),
    "threshold0": (lambda v: _is_num(v) and v > 0, "must be a positive number"),
    "pretrain_epochs": _int_from(0),
    "joint_epochs": _int_from(0),
    "learning_rate": (lambda v: _is_num(v) and v > 0, "must be a positive number"),
    "rho_theta_lr_mult": (lambda v: _is_num(v) and v > 0, "must be a positive number"),
    "latent_dim": _int_from(1),
    "hidden_dims": (
        lambda v: isinstance(v, (list, tuple)) and all(_is_int(d) and d >= 1 for d in v),
        "must be a list of integers from 1 to 2**63 - 1",
    ),
    "classic_lambda": (lambda v: _is_num(v) and v > 0, "must be a positive number"),
    "classic_rho": (lambda v: _is_num(v) and v > 0, "must be a positive number"),
    "classic_iterations": _int_from(1),
}


def validate_config(path=None, preset=None, overrides=None) -> RunConfig:
    """Build a RunConfig from defaults, preset, JSON file, and overrides.

    Later sources win. Raises ConfigError carrying the complete list of
    problems found; unknown keys are problems.
    """
    file_keys: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                file_keys = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file {path} is not valid JSON: {exc}"]) from exc
        if not isinstance(file_keys, dict):
            raise ConfigError([f"config file {path} must hold a JSON object"])

    # Only a name is looked up; _CHECKS["dataset"] reports any other value.
    name = preset or file_keys.get("dataset")
    merged = {**(PRESETS.get(name, {}) if isinstance(name, str) else {}), **file_keys,
              **({} if preset is None else {"dataset": preset}), **(overrides or {})}

    errors, cleaned = [], {}
    for key, value in merged.items():
        if key not in _CHECKS:
            errors.append(f"{_clip(key)}: unknown configuration key")
            continue
        ok, message = _CHECKS[key][0](value), _CHECKS[key][1]
        if not ok:
            errors.append(f"{key}: {message} (got {_clip(repr(value))})")
        else:
            cleaned[key] = value

    if "hidden_dims" in cleaned:
        cleaned["hidden_dims"] = tuple(cleaned["hidden_dims"])

    config = RunConfig(**cleaned)

    if "values_path" not in cleaned and not any(e.startswith("values_path") for e in errors):
        errors.append("values_path: required (no input data configured)")
    if config.k_clusters is None and not any(e.startswith("k_clusters") for e in errors):
        errors.append("k_clusters: required (not set by config or preset)")

    if errors:
        raise ConfigError(errors)
    return config


def _load_inputs(cfg: RunConfig):
    """Load either cube or matrix inputs, reading each file once.

    A 2-D values file counts as a single-band cube when its label file is a
    same-shaped map rather than a per-column vector. Returns (X, truth,
    coords, scene_shape); the last two are None for matrix data.
    """
    import numpy as np

    from unfold_ssc import container, data

    values = container.load_any(cfg.values_path)
    labels = container.load_any(cfg.labels_path) if cfg.labels_path else None
    is_map = (labels is not None and labels.ndim == 2
              and labels.shape == values.shape and 1 not in labels.shape)
    if values.ndim == 3 or is_map:
        cube = data.load_cube(values, labels)
        patches = data.extract_patches(cube, cfg.patch)
        return patches.X, np.asarray(patches.center_labels), patches.coords, cube.labels.shape
    X, truth = data.load_matrix(values, labels)
    return X, truth, None, None


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute one full batch run and write all artifacts.

    Returns a summary dict with the metric values (when ground truth was
    available) and the artifact names.
    """
    from unfold_ssc import autoenc, classic, cluster, container, train, unfold

    _check_out_dir(cfg.out_dir)
    inputs = (cfg.values_path, cfg.labels_path)
    clash = [name for name in ARTIFACTS if _holds_input(inputs, os.path.join(cfg.out_dir, name))]
    if clash:
        raise ConfigError([f"out_dir: input {name} would be overwritten by the run's artifact"
                           for name in clash])
    X, truth, coords, scene_shape = _load_inputs(cfg)
    n = X.shape[1]
    if cfg.k_clusters > n:
        raise ConfigError([f"k_clusters: {cfg.k_clusters} exceeds the {n} available samples"])

    history = None
    pretrain_history = None
    state = None
    S = None
    if cfg.mode == "unfold":
        if cfg.knn_init >= n or cfg.knn_struct >= n:
            raise ConfigError([f"knn_init/knn_struct: need fewer neighbors than the {n} samples"])
        state = train.init_state(X.shape[0], cfg)
        pretrain_history = train.pretrain(state, X, cfg)
        history = train.train_joint(state, X, cfg)
        Ht = autoenc.normalize_latent(autoenc.encode(state.ae, X))
        S = cluster.similarity(unfold.forward(state.unfold, Ht)[0])
        labels = cluster.spectral_cluster(S, cfg.k_clusters, cfg.seed)
    elif cfg.mode == "classic":
        S = cluster.similarity(classic.solve(X, cfg.classic_lambda, cfg.classic_rho,
                                             cfg.classic_iterations).C)
        labels = cluster.spectral_cluster(S, cfg.k_clusters, cfg.seed)
    elif cfg.mode == "kmeans-baseline":
        labels = cluster.kmeans(X.T, cfg.k_clusters, cfg.seed)
    else:
        raise ConfigError([f"mode: unknown mode {cfg.mode!r}"])

    from unfold_ssc import metrics as metrics_mod

    scores = metrics_mod.report(labels, truth) if truth is not None else None

    with _publishing(cfg.out_dir, ARTIFACTS, inputs) as stage:
        _write_labels(stage, "labels.csv", labels)
        if truth is not None:
            _write_labels(stage, "truth.csv", truth)
            _write_json(stage, "metrics.json", scores)
        if history is not None:
            rows = [
                (i + 1, b.total, b.ae, b.sr, b.sp, b.st) for i, b in enumerate(history)
            ]
            _write_csv(stage, "loss_history.csv", "epoch,l_all,l_ae,l_sr,l_sp,l_st", rows)
        if pretrain_history is not None:
            _write_csv(stage, "pretrain_history.csv", "epoch,l_ae",
                       [(i + 1, v) for i, v in enumerate(pretrain_history)])
        if S is not None:
            container.write_array(os.path.join(stage, "similarity.sscm"), S)
        if state is not None:
            save_checkpoint(os.path.join(stage, "checkpoint"), state)
        if coords is not None and scene_shape is not None:
            _write_ppm(stage, "label_map.ppm", scene_shape, coords, labels)
        _write_json(stage, "run_manifest.json",
                    {"config": asdict(cfg), "version": __version__})
        artifacts = sorted(os.listdir(stage))

    return {
        "mode": cfg.mode,
        "n_samples": int(n),
        "out_dir": cfg.out_dir,
        "metrics": scores,
        "artifacts": artifacts,
    }


# ---------------------------------------------------------------- artifacts


def _check_out_dir(out_dir: str) -> None:
    """Raise ConfigError when ``out_dir``, or the nearest of its ancestors
    that exists, is not a directory, so ``out_dir`` cannot be made."""
    path = out_dir
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise ConfigError([f"out_dir: cannot create directory {out_dir}: "
                           f"{path} is not a directory"])


def _holds_input(inputs, path: str) -> bool:
    """True when ``path`` is, or is a directory holding, one of the ``inputs`` paths."""
    real = os.path.realpath(path)
    found = [os.path.realpath(p) for p in inputs if p]
    return any(p == real or p.startswith(real + os.sep) for p in found)


@contextlib.contextmanager
def _publishing(out_dir: str, owned, inputs):
    """The one way a command writes into ``out_dir``.

    An ``out_dir`` that cannot be made a directory is a config error.
    Otherwise yields a private staging directory inside ``out_dir`` for the
    command to write plain files into. When the body finishes, every
    ``owned`` name in ``out_dir`` is replaced by its staged file, or deleted
    when nothing was staged under it, so no file of an earlier command is
    left next to this one's. A staged name that is, or holds, one of
    ``inputs`` in ``out_dir`` is a config error raised before anything
    changes; an input under an owned name that was not staged is kept. If
    the body raises, ``out_dir`` keeps what it held. The pass itself is one
    delete-and-rename per owned name, so a crash inside it can leave old
    and new files side by side.
    """
    _check_out_dir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        yield stage
        staged = set(os.listdir(stage))
        clash = [name for name in owned
                 if name in staged and _holds_input(inputs, os.path.join(out_dir, name))]
        if clash:
            raise ConfigError([f"out_dir: input {name} would be overwritten by the "
                               f"command's output" for name in clash])
        for name in owned:
            path = os.path.join(out_dir, name)
            if _holds_input(inputs, path):
                continue
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            elif os.path.lexists(path):
                os.remove(path)
            if name in staged:
                os.replace(os.path.join(stage, name), path)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_bytes(out_dir: str, name: str, payload: bytes) -> None:
    with open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(payload)


def _write_labels(out_dir: str, name: str, labels) -> None:
    _write_bytes(out_dir, name, "".join(f"{int(v)}\n" for v in labels).encode())


def _write_csv(out_dir: str, name: str, header: str, rows) -> None:
    text = [header]
    for row in rows:
        text.append(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row))
    _write_bytes(out_dir, name, ("\n".join(text) + "\n").encode())


def _write_json(out_dir: str, name: str, payload: dict) -> None:
    _write_bytes(out_dir, name, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _write_ppm(out_dir: str, name: str, shape, coords, labels) -> None:
    import numpy as np

    h, w = shape
    img = np.zeros((h, w, 3), dtype=np.uint8)
    palette = np.asarray(PALETTE, dtype=np.uint8)
    img[coords[:, 0], coords[:, 1]] = palette[np.asarray(labels) % len(PALETTE)]
    _write_bytes(out_dir, name, f"P6\n{w} {h}\n255\n".encode() + img.tobytes())


def save_checkpoint(path: str, state) -> None:
    """Write AE weights and unfold parameters into the new directory ``path``:
    one SSCM file per autoencoder tensor plus a JSON manifest with layer
    counts and the unfolded layers' scalars."""
    from unfold_ssc import autoenc, container

    os.makedirs(path)
    manifest: dict = {"format": 1, "slope": autoenc.LEAKY_SLOPE, "tensors": {}}
    manifest["ae"] = {"enc_layers": len(state.ae.enc), "dec_layers": len(state.ae.dec)}
    for name, arr in state.ae.named_arrays():
        fname = f"ae_{name.replace('.', '_')}.sscm"
        container.write_array(os.path.join(path, fname), arr.reshape(-1, arr.shape[-1]))
        manifest["tensors"][f"ae.{name}"] = {"file": fname, "shape": list(arr.shape)}
    if state.unfold is not None:
        manifest["unfold"] = {"n_layers": state.unfold.n_layers, "scalars": {
            name: float(arr) for name, arr in state.unfold.named_arrays()}}
    _write_json(path, "manifest.json", manifest)


# ---------------------------------------------------------------- commands


def cmd_run(args) -> int:
    flags = {"seed": args.seed, "out_dir": args.out, "mode": args.mode}
    cfg = validate_config(args.config, preset=args.preset,
                          overrides={k: v for k, v in flags.items() if v is not None})
    summary = run_pipeline(cfg)
    if summary["metrics"]:
        m = summary["metrics"]
        print(f"acc={m['acc']:.4f} nmi={m['nmi']:.4f} kappa={m['kappa']:.4f} "
              f"n={m['n']}")
    print(f"artifacts written to {summary['out_dir']}")
    return 0


def cmd_cluster(args) -> int:
    import numpy as np

    from unfold_ssc import cluster, container, metrics as metrics_mod

    C = container.load_any(args.from_c)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DataError(f"coefficient matrix must be square, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise DataError("coefficient matrix has non-finite entries")
    errors = _flag_errors({"seed": args.seed}, 0)
    if not 1 <= args.k <= C.shape[0]:
        errors.append(f"--k: must be between 1 and the {C.shape[0]} samples "
                      f"(got {_clip(str(args.k))})")
    if errors:
        raise ConfigError(errors)
    truth = _read_label_vector(args.truth) if args.truth else None
    if truth is not None and truth.shape[0] != C.shape[0]:
        raise DataError(f"{args.truth}: {truth.shape[0]} labels for {C.shape[0]} samples")
    labels = cluster.spectral_cluster(cluster.similarity(C), args.k, args.seed)
    scores = metrics_mod.report(labels, truth) if truth is not None else None
    with _publishing(args.out, ("labels.csv", "metrics.json"), (args.from_c, args.truth)) as stage:
        _write_labels(stage, "labels.csv", labels)
        if scores is not None:
            _write_json(stage, "metrics.json", scores)
    if scores is not None:
        print(f"acc={scores['acc']:.4f} nmi={scores['nmi']:.4f} kappa={scores['kappa']:.4f}")
    print(f"artifacts written to {args.out}")
    return 0


def _read_label_vector(path):
    """The labels in ``path`` as an int64 vector, checked by ``data.as_labels``."""
    from unfold_ssc import container, data

    flat = container.load_any(path).reshape(-1)
    if flat.size == 0:
        raise DataError(f"{path}: no labels")
    return data.as_labels(flat, path)


def cmd_eval(args) -> int:
    from unfold_ssc import metrics as metrics_mod

    pred = _read_label_vector(args.pred)
    truth = _read_label_vector(args.truth)
    scores = metrics_mod.report(pred, truth)
    print(json.dumps(scores, indent=2, sort_keys=True))
    if args.out:
        with _publishing(args.out, ("metrics.json",), (args.pred, args.truth)) as stage:
            _write_json(stage, "metrics.json", scores)
    return 0


def cmd_gen(args) -> int:
    import numpy as np

    from unfold_ssc import container, data

    counts = {"clusters": args.clusters}
    if args.kind == "subspaces":
        counts.update({"per-cluster": args.per_cluster, "ambient-dim": args.ambient_dim})
    else:
        counts.update(height=args.height, width=args.width, bands=args.bands)
    errors = _flag_errors(counts, 1) + _flag_errors({"seed": args.seed}, 0)
    if not 0 <= args.sigma < float("inf"):
        errors.append(f"--sigma: must be a finite non-negative number (got {args.sigma})")
    if args.kind == "subspaces" and not 1 <= args.sub_dim <= args.ambient_dim:
        errors.append(f"--sub-dim: must be between 1 and --ambient-dim "
                      f"({_clip(str(args.ambient_dim))}) (got {_clip(str(args.sub_dim))})")
    if errors:
        raise ConfigError(errors)
    if args.kind == "subspaces":
        values, labels = data.gen_subspaces(args.seed, args.clusters, args.ambient_dim,
                                            args.sub_dim, args.per_cluster, args.sigma)
    else:
        try:  # the scene's layout comes from the flags alone
            cube = data.gen_synthetic_cube(args.seed, args.clusters,
                                           (args.height, args.width), args.bands, args.sigma)
        except DataError as exc:
            raise ConfigError([f"--clusters: {exc}"]) from None
        values, labels = cube.values, cube.labels.astype(np.float64)
    with _publishing(args.out, ("values.sscm", "labels.csv", "labels.sscm"), ()) as stage:
        container.write_array(os.path.join(stage, "values.sscm"), values)
        if args.kind == "subspaces":
            _write_labels(stage, "labels.csv", labels)
        else:
            container.write_array(os.path.join(stage, "labels.sscm"), labels)
    print(f"wrote {args.kind} data to {args.out}")
    return 0


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unfold-ssc",
        description="Self-representation subspace clustering, classic and unfolded.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: train, cluster, evaluate")
    p_run.add_argument("--config", help="JSON configuration file")
    p_run.add_argument("--preset", choices=sorted(PRESETS), help="dataset preset")
    p_run.add_argument("--seed", type=int, help="run seed")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--mode", choices=MODES, help="pipeline variant")
    p_run.set_defaults(func=cmd_run)

    p_clu = sub.add_parser("cluster", help="spectral clustering from a saved matrix")
    p_clu.add_argument("--from-c", required=True, dest="from_c",
                       help="coefficient matrix file (SSCM or CSV)")
    p_clu.add_argument("--k", type=int, required=True, help="number of clusters")
    p_clu.add_argument("--truth", help="optional true labels for metrics")
    p_clu.add_argument("--seed", type=int, default=0)
    p_clu.add_argument("--out", default="ssc_out")
    p_clu.set_defaults(func=cmd_cluster)

    p_eval = sub.add_parser("eval", help="metrics on saved label files")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", help="optional directory for metrics.json")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen", help="synthetic data generators")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_sub = gen_sub.add_parser("subspaces", help="union-of-subspaces matrix")
    g_sub.add_argument("--clusters", type=int, default=3)
    g_sub.add_argument("--ambient-dim", type=int, default=30)
    g_sub.add_argument("--sub-dim", type=int, default=3)
    g_sub.add_argument("--per-cluster", type=int, default=100)
    g_sub.add_argument("--sigma", type=float, default=0.01)
    g_sub.add_argument("--seed", type=int, default=0)
    g_sub.add_argument("--out", default="ssc_data")
    g_sub.set_defaults(func=cmd_gen)
    g_cube = gen_sub.add_parser("cube", help="labeled synthetic image cube")
    g_cube.add_argument("--clusters", type=int, default=4)
    g_cube.add_argument("--height", type=int, default=20)
    g_cube.add_argument("--width", type=int, default=20)
    g_cube.add_argument("--bands", type=int, default=16)
    g_cube.add_argument("--sigma", type=float, default=0.02)
    g_cube.add_argument("--seed", type=int, default=0)
    g_cube.add_argument("--out", default="ssc_data")
    g_cube.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Sizes that pass validation can still ask for arrays no machine holds.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
