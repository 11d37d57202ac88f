"""Clustering-quality ablation of the unfolded network against its baselines.

    PYTHONPATH=src python3 ablation/run.py --out ablation/results.json
    python3 ablation/run.py --compare BEFORE.json AFTER.json

Each arm is one ``cli.run_pipeline`` call on 5x5 patches of a 20x20x16 cube,
for seeds 0-4 (the seed draws the cube and seeds the run). Two cubes:

- ``a5``: the acceptance gate A5's ``gen cube`` (4 rectangular classes, one
  smooth signature each, sigma 0.02).
- ``mixing``: linear spectral mixing over 4 Voronoi regions. Each class
  mixes its own set of 3 of 6 smooth endmembers with Dirichlet(1)
  abundances, scaled by a U(0.4, 1.6) illumination per pixel, plus
  N(0, 0.02^2) noise. No two classes share an endmember set.

The arms: ``kmeans-baseline`` and ``classic`` (lambda 0.1, rho 1, 200
iterations) on the raw patches, the unfolded network at the A5
configuration with 400 pretrain and no joint epochs (``unfold-no-joint``),
and with 400 + 600 (``unfold``). Only ``cli.run_pipeline`` and the cube
writers are used, so the script runs unchanged against another source tree
put first on PYTHONPATH. ``--compare`` prints, per cube and arm, the mean
ACC of two result files and whether they differ by no more than the larger
of their seed standard deviations.
"""

import argparse
import itertools
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

SEEDS = (0, 1, 2, 3, 4)
SHAPE, BANDS, CLUSTERS, SIGMA = (20, 20), 16, 4, 0.02
ENDMEMBERS, PER_CLASS = 6, 3
A5_NET = {"k_clusters": CLUSTERS, "patch": 5, "rho0": 0.5, "admm_layers": 3}
ARMS = {
    "kmeans-baseline": {"k_clusters": CLUSTERS, "patch": 5, "mode": "kmeans-baseline"},
    "classic": {"k_clusters": CLUSTERS, "patch": 5, "mode": "classic",
                "classic_lambda": 0.1, "classic_rho": 1.0, "classic_iterations": 200},
    "unfold-no-joint": {**A5_NET, "pretrain_epochs": 400, "joint_epochs": 0},
    "unfold": {**A5_NET, "pretrain_epochs": 400, "joint_epochs": 600},
}


def smooth_spectra(rng, count, bands):
    """``count`` random sums of three low-frequency sinusoids, each mapped
    into [0.1, 0.9], as rows."""
    x = np.linspace(0.0, 1.0, bands)
    out = np.empty((count, bands))
    for c in range(count):
        sig = sum(rng.standard_normal() / f * np.sin(2.0 * np.pi * (f * x + rng.random()))
                  for f in range(1, 4))
        out[c] = 0.1 + 0.8 * (sig - sig.min()) / (sig.max() - sig.min())
    return out


def mixing_cube(seed):
    """(values, labels) of a linear-mixing cube; labels cover 1..CLUSTERS.
    Raises ValueError if two classes would share an endmember set."""
    rng = np.random.default_rng(seed)
    (h, w), k = SHAPE, CLUSTERS
    sets = list(itertools.combinations(range(ENDMEMBERS), PER_CLASS))
    chosen = [sets[i] for i in rng.choice(len(sets), size=k, replace=False)]
    if len(set(chosen)) != k:
        raise ValueError("two classes share an endmember set")
    spectra = smooth_spectra(rng, ENDMEMBERS, BANDS)
    centers = rng.choice(h * w, size=k, replace=False)
    rows, cols = np.divmod(np.arange(h * w), w)
    d2 = ((rows[:, None] - centers // w) ** 2 + (cols[:, None] - centers % w) ** 2)
    labels = (np.argmin(d2, axis=1) + 1).reshape(h, w)
    abundances = rng.dirichlet(np.ones(PER_CLASS), size=h * w)
    illumination = rng.uniform(0.4, 1.6, size=h * w)
    members = np.asarray(chosen)[labels.reshape(-1) - 1]  # (pixels, PER_CLASS)
    values = np.einsum("pj,pjb->pb", abundances, spectra[members]) * illumination[:, None]
    values += SIGMA * rng.standard_normal(values.shape)
    return values.reshape(h, w, BANDS), labels


def write_cube(kind, seed, directory):
    from unfold_ssc import container, data

    if kind == "a5":
        cube = data.gen_synthetic_cube(seed, CLUSTERS, SHAPE, BANDS, SIGMA)
        values, labels = cube.values, cube.labels
    else:
        values, labels = mixing_cube(seed)
    paths = os.path.join(directory, "values.sscm"), os.path.join(directory, "labels.sscm")
    container.write_array(paths[0], values)
    container.write_array(paths[1], np.asarray(labels, dtype=np.float64))
    return paths


def run_all():
    from unfold_ssc import cli

    results = {}
    with tempfile.TemporaryDirectory() as work:
        for cube in ("a5", "mixing"):
            for seed in SEEDS:
                values, labels = write_cube(cube, seed, work)
                for arm in ARMS:
                    cfg = cli.validate_config(overrides={
                        **ARMS[arm], "seed": seed, "values_path": values,
                        "labels_path": labels, "out_dir": os.path.join(work, "out")})
                    started = time.monotonic()
                    scores = cli.run_pipeline(cfg)["metrics"]
                    row = {k: scores[k] for k in ("acc", "nmi", "kappa")}
                    row["run_s"] = round(time.monotonic() - started, 2)
                    results.setdefault(cube, {}).setdefault(arm, {})[str(seed)] = row
                    print(f"{cube} {arm} seed {seed}: acc={row['acc']:.4f} "
                          f"({row['run_s']} s)", file=sys.stderr)
    return results


def acc_summary(per_seed):
    accs = [row["acc"] for row in per_seed.values()]
    return statistics.fmean(accs), statistics.stdev(accs), min(accs), max(accs)


def compare(before_path, after_path):
    """Per cube and arm: both mean ACCs and whether they differ by no more
    than the larger sample standard deviation over seeds. Returns whether
    every shared arm does."""
    with open(before_path) as fh:
        before = json.load(fh)["results"]
    with open(after_path) as fh:
        after = json.load(fh)["results"]
    ok = True
    for cube in before:
        for arm in before[cube]:
            if arm not in after.get(cube, {}):
                continue
            m0, s0, _, _ = acc_summary(before[cube][arm])
            m1, s1, _, _ = acc_summary(after[cube][arm])
            within = abs(m1 - m0) <= max(s0, s1)
            ok &= within
            print(f"{cube:7s} {arm:16s} {m0:.4f} (sd {s0:.4f}) -> {m1:.4f} (sd {s1:.4f}): "
                  f"{'within' if within else 'OUTSIDE'} seed spread")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="results file to write")
    parser.add_argument("--label", default="", help="what tree the results come from")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if not args.out:
        parser.error("--out is required unless --compare is given")
    results = run_all()
    summary = {cube: {arm: dict(zip(("mean", "sd", "min", "max"), acc_summary(rows)))
                      for arm, rows in arms.items()} for cube, arms in results.items()}
    with open(args.out, "w") as fh:
        json.dump({"label": args.label, "arms": ARMS, "seeds": list(SEEDS),
                   "acc_summary": summary, "results": results},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
