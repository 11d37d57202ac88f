"""One pipeline run in a fresh process; run.py starts it and reads its result.

Everything up to the call of ``cli.run_pipeline`` (interpreter start, the
imports of the package with numpy and scipy, config validation) is set-up;
the call itself is the timed run. With ``--trace`` the package's public
functions record spans, which are written with the result.

    python3 perfbench/child.py --config CFG --out-dir DIR --result FILE [--trace]
"""

import argparse
import json
import resource
import time

import numpy  # noqa: F401  (imported here so set-up holds the numerics stack)
import scipy.linalg  # noqa: F401
import scipy.optimize  # noqa: F401

import unfold_ssc
from unfold_ssc import (autoenc, classic, cli, cluster, container, data, graph, metrics,
                        train, unfold)

LAYERS = (container, data, autoenc, unfold, train, graph, classic, cluster, metrics, cli)


def capture(module, name, record):
    """Call ``record(args, result)`` after each call of ``module.name``."""
    fn = getattr(module, name)

    def captured(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args, result)
        return result

    setattr(module, name, captured)


def install_tracer(counters):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(LAYERS)

    def after_joint(args, _):
        state = args[0]
        counters["param_count"] = sum(int(a.size) for _, a in state.named_arrays())
        n, latent = state.unfold.layers[0].W.shape
        counters["unfold_shape"] = (n, latent, state.unfold.n_layers)

    def after_solve(_, result):
        counters["final_residual"] = float(result.residuals[-1])

    capture(train, "train_joint", after_joint)
    capture(classic, "solve", after_solve)
    return tracer


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cfg = cli.validate_config(args.config, overrides={"out_dir": args.out_dir})
    counters = {}
    tracer = install_tracer(counters) if args.trace else None

    entered = time.monotonic()
    summary = cli.run_pipeline(cfg)
    run_s = time.monotonic() - entered
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "entered": entered,
        "run_s": run_s,
        "peak_rss_kb": peak_rss_kb,
        "package": unfold_ssc.__file__,
        "summary": summary,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = counters
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
