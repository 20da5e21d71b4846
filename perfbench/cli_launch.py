"""Run ``ssp_kit.cli.main`` in a child process and record how it ran.

Usage: cli_launch.py spans|speed OUT ARG...  -- behaves like
``python -m ssp_kit.cli ARG...``.  With ``spans`` it also writes one span
per line to OUT: the import of ``ssp_kit.cli``, ``cli.main`` and the layer
calls beneath it.  With ``speed`` it times the reference kernel of speed.py
while the command runs, the import included, and writes the kernel
timings to OUT as a JSON list.
"""

import json
import sys
import time


def main(mode: str, out: str, argv: list[str]) -> int:
    if mode == "speed":
        import speed

        meter = speed.Meter()
        try:
            with meter.probing():
                import ssp_kit.cli as cli

                return cli.main(argv)
        finally:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(meter.refs(), handle)

    start = time.perf_counter()
    import ssp_kit.cli as cli

    end = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.record(spans.IMPORT, start, end)
    spans.install(tracer)
    try:
        with tracer.span(spans.MAIN):
            return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
