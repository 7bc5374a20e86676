"""One benchmark sample: a fresh interpreter that imports krrdeteq and runs one CLI call.

Usage: python3 child.py RECORD.json MODE -- <krrdeteq CLI arguments>

MODE is ``import`` (measure the import only), ``run`` or ``trace`` (run the
call with every declared span wrapped).  Writes RECORD.json with setup_s
(the ``import krrdeteq.cli``), wall_s and cpu_s (user + sys of the whole
process, BLAS threads included) of the ``cli.main(argv)`` call, peak_rss_kb,
the exit code, the environment as seen by this process and, when traced,
the spans of the call and the tracer's measured cost per span.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import krrdeteq.cli as cli  # noqa: E402

setup_s = time.perf_counter() - t0


def main() -> None:
    record_path, mode = sys.argv[1], sys.argv[2]
    if mode == "import":
        with open(record_path, "w") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return
    argv = sys.argv[sys.argv.index("--") + 1:]
    entry = cli.main
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap("cli.main", cli.main)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = entry(argv)
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    import environment

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_kb": usage1.ru_maxrss,
        "exit_code": code,
        "env": environment.process_environment(),
        "spans": tracer.spans if tracer else None,
        "span_cost_s": tracing.span_cost_s() if tracer else None,
    }
    with open(record_path, "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
