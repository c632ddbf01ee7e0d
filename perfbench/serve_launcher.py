"""Start ``repro serve`` through the CLI entry point, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py [--trace-out FILE] -- serve ...``

Without ``--trace-out`` this only imports the CLI, prints one host
probe taken between imports and calibration as ``PERFBENCH probe <s>``
(the benchmark normalizes set-up time with it), and calls
``repro.cli.main`` with the arguments after ``--``.  With it, the span
wrappers of ``tracing.py`` are installed first and recording starts on;
each ``SIGUSR1`` flips recording and acknowledges on stdout with
``PERFBENCH tracing=<on|off>``.  The layer table of the last "on"
stretch, the exact counts and the import time are written to
``FILE`` (JSON) when the server has drained, and the spans to
``FILE.spans.jsonl``.
"""

from __future__ import annotations

import json
import pathlib
import signal
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out = pathlib.Path(argv[1])
        argv = argv[2:]
    if argv[:1] != ["--"]:
        print("usage: serve_launcher.py [--trace-out FILE] -- serve ...",
              file=sys.stderr)
        return 2
    argv = argv[1:]

    import_start = time.perf_counter()
    import repro.cli
    import repro.runtime.store  # noqa: F401
    import repro.serve.server  # noqa: F401
    import_s = time.perf_counter() - import_start
    print(f"PERFBENCH probe {common.host_probe_s()!r}", flush=True)
    if trace_out is None:
        return repro.cli.main(argv)

    import tracing
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    phase = {"first": 0}

    def toggle(_signum, _frame) -> None:
        recorder.enabled = not recorder.enabled
        if recorder.enabled:
            # A new traced stretch: its table and counts start here.
            phase["first"] = len(recorder.spans)
            recorder.counts.clear()
            recorder.batch_widths.clear()
        print(f"PERFBENCH tracing={'on' if recorder.enabled else 'off'}",
              flush=True)

    signal.signal(signal.SIGUSR1, toggle)
    code = repro.cli.main(argv)
    recorder.enabled = False
    trace_out.write_text(json.dumps({
        "import_s": import_s,
        "calibrate_s": recorder.inclusive_s("calibration.calibrate"),
        "layers": recorder.layer_table(phase["first"]),
        "counts": recorder.counts,
        "batch_widths": recorder.batch_widths,
    }))
    recorder.dump(trace_out.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
