"""Run the ocksr command line with span tracing and write the spans to a file.

    python3 perfbench/traced_cli.py SPANS.json train --data d.csv --label-col 0 ...

The arguments after the span file are passed to ``ocksr.cli.main``
unchanged; the exit code is the command's.
"""

import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    rec.install()
    import ocksr.cli

    try:
        return ocksr.cli.main(argv)
    finally:
        rec.uninstall()
        rec.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
