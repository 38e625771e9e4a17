"""Run one torogram command with spans installed; used by traced cli-mixed runs.

    python perfbench/cli_child.py SUMMARY.json <torogram arguments>

Behaves like ``python -m torogram.cli <torogram arguments>`` (same output,
same exit code) and also writes the span summary of the call to
SUMMARY.json.
"""
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import torogram.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        code = torogram.cli.main(sys.argv[2:])
    finally:
        tracer.close(idx)
        tracer.uninstall()
    Path(sys.argv[1]).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
