"""Write one workload's input sets and the platform fingerprint.

Runs in its own process before any timed run, so that neither the
generator's memory nor its imports reach the timed processes' figures.

    python3 perfbench/gen.py --workload a5-cube --seed 0 --out DIR
"""

import argparse
import json
import os
import platform

from workloads import CUBE_SIGMA, SUBSPACE_SIGMA, WORKLOADS


def blas_build():
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import numpy as np
    import scipy

    from unfold_ssc import container, data

    workload = WORKLOADS[args.workload]
    spec = workload["input"]
    for index in range(workload["datasets"]):
        # Invocations with seeds s and s+1 draw disjoint input sets.
        seed = args.seed * workload["datasets"] + index
        out = os.path.join(args.out, str(index))
        os.makedirs(out)
        values_path = os.path.join(out, "values.sscm")
        labels_path = os.path.join(out, "labels.sscm")
        if spec["kind"] == "cube":
            cube = data.gen_synthetic_cube(seed, spec["clusters"], spec["shape"],
                                           spec["bands"], CUBE_SIGMA)
            container.write_array(values_path, cube.values)
            container.write_array(labels_path, cube.labels.astype(np.float64))
        else:
            X, labels = data.gen_subspaces(seed, spec["clusters"], spec["ambient_dim"],
                                           spec["sub_dim"], spec["per_cluster"], SUBSPACE_SIGMA)
            container.write_array(values_path, X)
            container.write_array(labels_path, labels.astype(np.float64).reshape(1, -1))
        config = {**workload["config"], "seed": seed,
                  "values_path": values_path, "labels_path": labels_path}
        with open(os.path.join(out, "config.json"), "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)

    fingerprint = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
    }
    with open(os.path.join(args.out, "fingerprint.json"), "w") as fh:
        json.dump(fingerprint, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main()
