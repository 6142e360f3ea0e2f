"""Run one gausskit CLI request with layer spans recorded.

    python3 perfbench/cli_traced.py SPANS_OUT ARGS...

Behaves as `python3 -m gausskit.cli ARGS...` (same stdout, stderr and
exit code) and writes the request's spans to SPANS_OUT when it ends.
"""

import sys

from spans import Recorder


def main() -> int:
    out, *argv = sys.argv[1:]
    rec = Recorder()
    rec.install()
    from gausskit import cli

    try:
        return rec.wrap(cli.main, "cli.main")(argv)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
