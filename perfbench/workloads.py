"""Workload definitions shared by the input generator and the runner.

Each workload names a synthetic input, the pipeline configuration the
timed runs use, and how many input sets one invocation draws from its seed.
Clustering quality varies from one input set to the next far more than run
time does, so the quality metrics average over several sets; the timed runs
cycle through them. Epoch and iteration counts set the length of one
pipeline run; they are shorter than the paper's so that several
fresh-process runs fit in one measurement window.
"""

CUBE_SIGMA = 0.02
SUBSPACE_SIGMA = 0.01

# The A5 gate configuration (20x20x16 cube, patch 5, K=3, rho0=0.5) with
# short training phases.
A5_NET = {"k_clusters": 4, "patch": 5, "admm_layers": 3, "rho0": 0.5}

WORKLOADS = {
    "a5-cube": {
        "input": {"kind": "cube", "clusters": 4, "shape": (20, 20), "bands": 16},
        "config": {**A5_NET, "pretrain_epochs": 40, "joint_epochs": 12},
        "datasets": 6,
    },
    "wide-bands": {
        "input": {"kind": "cube", "clusters": 4, "shape": (20, 20), "bands": 200},
        "config": {"dataset": "indian_pines", "k_clusters": 4,
                   "pretrain_epochs": 1, "joint_epochs": 3},
        "datasets": 6,
    },
    "large-n": {
        "input": {"kind": "cube", "clusters": 4, "shape": (40, 40), "bands": 16},
        "config": {**A5_NET, "pretrain_epochs": 10, "joint_epochs": 1},
        "datasets": 2,
    },
    "classic-matrix": {
        "input": {"kind": "subspaces", "clusters": 5, "ambient_dim": 30,
                  "sub_dim": 3, "per_cluster": 200},
        "config": {"mode": "classic", "k_clusters": 5, "classic_lambda": 0.1,
                   "classic_rho": 1.0, "classic_iterations": 30},
        "datasets": 2,
    },
}
