"""Traced stand-in for ``python -m akzeta.cli``.

Usage: python bench/cli_shim.py TRACE_OUT CLI_ARGS...

Times ``import akzeta.cli``, wraps the layer functions, runs ``cli.main`` on
CLI_ARGS and writes the spans and the import time to TRACE_OUT.
"""

import sys
import time

t0 = time.perf_counter()
import akzeta.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402

if __name__ == "__main__":
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        rc = akzeta.cli.main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1], import_s=import_s)
    sys.exit(rc)
