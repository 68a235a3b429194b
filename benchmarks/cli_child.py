"""Run one shlattice CLI command in this fresh interpreter, as
``python -m shlattice.cli <args>`` would, with the benchmark's tracer
installed; write the tracer's summary as JSON and exit with the command's
exit code.

    python3 benchmarks/cli_child.py <coarse|full> <summary.json> <cli args...>
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from shlattice import cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    mode, summary_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer(full=mode == "full")
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        summary_path.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    raise SystemExit(main())
