"""One benchmark operation in a fresh, single-threaded process.

Usage: ``python3 bench/worker.py '<json spec>'`` with ``src`` on PYTHONPATH.
The spec names the timed CLI argv, an optional untimed set-up argv and
whether to trace.  The worker prints ``ready`` once imports and set-up are
done, then runs the timed command through ``tfqkd.cli.main`` with its stdout
captured, and prints one JSON line with the exit code, the wall time, the
captured output, the peak resident memory and, when traced, the per-layer
summary of the timed phase.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def main():
    spec = json.loads(sys.argv[1])
    from tfqkd import cli  # loads every tfqkd module, so all can be wrapped

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    setup_builds = 0
    if spec["setup_argv"]:
        run_cli(cli.main, spec["setup_argv"])
        if tracer is not None:
            setup_builds = tracer.summary()["pulse_math.build_spectrum"]["calls"]
            tracer.reset()
    print("ready", flush=True)

    start = time.perf_counter()
    rc, output = run_cli(cli.main, spec["argv"])
    wall = time.perf_counter() - start

    result = {
        "rc": rc,
        "wall_s": wall,
        "output": output,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["setup_builds"] = setup_builds
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
