"""Spans around the package's public functions, and the per-layer metrics.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records a span: (name, parent span index, start, end). The
package calls across modules through module attributes (``unfold.forward``,
``autoenc.ae_forward``) and within a module through its globals (``kmeans``
from ``spectral_cluster``), so replacing the module attribute reaches every
call without changing the package. Spans stay in memory until the run ends.
"""

import functools
import inspect
import statistics
import time
from collections import defaultdict

# name -> unit, in the order the benchmark reports them. ``_ms`` metrics are
# medians per call, ``_s`` metrics are totals per run.
LAYER_METRICS = {
    "unfold.forward_ms": "ms",
    "unfold.backward_ms": "ms",
    "unfold.gflop_per_epoch": "GFLOP",
    "unfold.gflops": "GFLOP/s",
    "unfold.state_mb": "MB",
    "autoenc.ae_forward_ms": "ms",
    "autoenc.ae_backward_ms": "ms",
    "train.adam_step_ms": "ms",
    "train.param_count": "count",
    "train.pretrain_epoch_ms": "ms",
    "train.joint_epoch_ms": "ms",
    "train.total_loss_self_ms": "ms",
    "graph.structure_loss_ms": "ms",
    "graph.knn_adjacency_s": "s",
    "cluster.spectral_cluster_s": "s",
    "cluster.kmeans_s": "s",
    "classic.solve_s": "s",
    "classic.iteration_ms": "ms",
    "classic.precompute_s": "s",
    "classic.final_residual": "norm",
    "container.load_s": "s",
    "container.load_any_calls": "count",
    "container.write_s": "s",
    "data.extract_patches_s": "s",
    "cli.run_pipeline_self_s": "s",
    "cli.artifact_bytes": "bytes",
    "metrics.report_ms": "ms",
    "trace.overhead_s": "s",
}

PRETRAIN_EPOCH_CALLS = {"autoenc.ae_forward", "autoenc.ae_loss", "autoenc.ae_backward",
                        "train.adam_step"}
JOINT_EPOCH_CALLS = {"train.total_loss", "train.adam_step"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, modules):
        """Wrap each public function defined in each of ``modules``."""
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    setattr(module, name, self.wrap(f"{layer}.{name}", obj))


def unfold_gflop_per_epoch(n, latent, layers):
    """Matrix-product flops of one unfolded forward plus backward pass.

    Per layer the forward does W H~ (2 n^2 l) and B V (2 n^3); the backward
    does two products of each shape. Elementwise work is left out.
    """
    return layers * (6.0 * n**3 + 6.0 * n**2 * latent) / 1e9


def unfold_state_mb(n, latent, layers):
    """Computed float64 size of the unfolded network's state, in MB.

    Parameters (W, B, rho, theta per layer) and their two Adam moments,
    plus the forward tape: Z and mu at entry, V, C, T and Z per layer, the
    K-1 intermediate mu, and the output C.
    """
    params = layers * (n * latent + n * n + 2)
    tape = (5 * layers + 2) * n * n
    return 8.0 * (3 * params + tape) / 1e6


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced run (everything but trace.overhead_s)."""
    dur = [end - start for _, _, start, end in spans]
    children = defaultdict(list)
    by_name = defaultdict(list)
    for index, (name, parent, _, _) in enumerate(spans):
        by_name[name].append(index)
        if parent >= 0:
            children[parent].append(index)

    def total_s(name):
        return sum(dur[i] for i in by_name[name])

    def median_ms(durations):
        durations = list(durations)
        return 1e3 * statistics.median(durations) if durations else 0.0

    def self_s(index):
        return dur[index] - sum(dur[c] for c in children[index])

    def epoch_ms(phase, epoch_calls):
        ids = by_name[phase]
        if not ids:
            return 0.0
        kids = children[ids[0]]
        epochs = sum(1 for c in kids if spans[c][0] == "train.adam_step")
        setup = sum(dur[c] for c in kids if spans[c][0] not in epoch_calls)
        return 1e3 * (dur[ids[0]] - setup) / epochs if epochs else 0.0

    joint = by_name["train.train_joint"]
    joint_adam = [c for c in children[joint[0]] if spans[c][0] == "train.adam_step"] if joint else []
    solve = by_name["classic.solve"]
    iterations = sum(1 for c in children[solve[0]] if spans[c][0] == "classic.step_C") if solve else 0
    precompute_in_solve = sum(dur[c] for c in children[solve[0]]
                              if spans[c][0] == "classic.precompute") if solve else 0.0

    n, latent, layers = counters.get("unfold_shape", (0, 0, 0))
    forward_ms = median_ms(dur[i] for i in by_name["unfold.forward"])
    backward_ms = median_ms(dur[i] for i in by_name["unfold.backward"])
    gflop = unfold_gflop_per_epoch(n, latent, layers)
    pass_s = (forward_ms + backward_ms) / 1e3

    return {
        "unfold.forward_ms": forward_ms,
        "unfold.backward_ms": backward_ms,
        "unfold.gflop_per_epoch": gflop,
        "unfold.gflops": gflop / pass_s if pass_s > 0 else 0.0,
        "unfold.state_mb": unfold_state_mb(n, latent, layers),
        "autoenc.ae_forward_ms": median_ms(dur[i] for i in by_name["autoenc.ae_forward"]),
        "autoenc.ae_backward_ms": median_ms(dur[i] for i in by_name["autoenc.ae_backward"]),
        "train.adam_step_ms": median_ms(dur[i] for i in joint_adam),
        "train.param_count": counters.get("param_count", 0),
        "train.pretrain_epoch_ms": epoch_ms("train.pretrain", PRETRAIN_EPOCH_CALLS),
        "train.joint_epoch_ms": epoch_ms("train.train_joint", JOINT_EPOCH_CALLS),
        "train.total_loss_self_ms": median_ms(self_s(i) for i in by_name["train.total_loss"]),
        "graph.structure_loss_ms": median_ms(dur[i] for i in by_name["graph.structure_loss"]),
        "graph.knn_adjacency_s": total_s("graph.knn_adjacency"),
        "cluster.spectral_cluster_s": total_s("cluster.spectral_cluster"),
        "cluster.kmeans_s": total_s("cluster.kmeans"),
        "classic.solve_s": total_s("classic.solve"),
        "classic.iteration_ms": (1e3 * (total_s("classic.solve") - precompute_in_solve) / iterations
                                 if iterations else 0.0),
        "classic.precompute_s": total_s("classic.precompute"),
        "classic.final_residual": counters.get("final_residual", 0.0),
        "container.load_s": total_s("container.load_any"),
        "container.load_any_calls": len(by_name["container.load_any"]),
        "container.write_s": total_s("container.write_array"),
        "data.extract_patches_s": total_s("data.extract_patches"),
        "cli.run_pipeline_self_s": sum(self_s(i) for i in by_name["cli.run_pipeline"]),
        "metrics.report_ms": 1e3 * total_s("metrics.report"),
    }
