"""Run one topofield CLI command with layer spans recorded.

Usage: python perfbench/cli_child.py SPANS_JSON COMMAND [ARGS...]

Behaves like ``python -m topofield COMMAND [ARGS...]`` (same stdout, stderr
and exit status, including a traceback for an uncaught exception) and also
writes the command's spans to SPANS_JSON: ``cli.import`` for the fresh
``import topofield`` and one span per wrapped layer call.
"""

import sys

from spans import Tracer, install


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer("child")
    try:
        with tracer.span("cli.import"):
            import topofield  # noqa: F401
            import topofield.cli
        install(tracer)
        code = topofield.cli.run(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
