"""Run ``qmemory`` like ``python -m qmemory``, recording spans in this process.

Usage: ``python perfbench/traced_cli.py SPAN_FILE [qmemory arguments...]``.
The import of ``qmemory.cli`` gets its own ``subprocess.import`` span; the
spans are written to SPAN_FILE (``.npz``) after the command returns, and the
process exits with the command's exit code.
"""
import sys

from tracer import Tracer


def run(span_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    idx = tracer.begin(tracer.name_id("subprocess.import"))
    import qmemory.cli as cli

    tracer.finish(idx)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save(span_file)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
