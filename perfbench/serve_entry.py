"""Start ``repro serve`` for the serve-closed workload.

    python3 perfbench/serve_entry.py ROOT TRACED serve --socket ... [args]

Imports the program from ``ROOT/src`` and hands the remaining arguments
to the ``repro`` command line.  With ``TRACED=1`` the per-layer span
recorder is installed first and this process's spans are written to the
working directory when the server exits; forked pool workers write
their own.
"""

from __future__ import annotations

import os
import sys

ROOT = sys.argv[1]
TRACED = sys.argv[2] == "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402  (after the path set-up above)


def main() -> int:
    recorder = layers.install(os.getcwd()) if TRACED else None
    from repro.cli import main as repro_main

    code = repro_main(sys.argv[3:])
    if recorder is not None:
        recorder.dump("server")
    return code


if __name__ == "__main__":
    sys.exit(main())
