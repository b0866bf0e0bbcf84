"""Set-up of one workload in a fresh interpreter, as a user's first run pays it.

    python3 perfbench/setup_child.py <workload> <seed> <trace 0|1>

Times the import of robandit, config parsing and the one-time construction
(``workloads.construct``), and prints one JSON line. With trace 1 it also
records spans around the layer entry points and prints their totals by name.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import robandit.harness

    t_import = time.perf_counter()

    from stats import summarize_spans
    from tracer import Tracer
    from workloads import WORKLOADS, construct

    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    text = WORKLOADS[name].config_text(seed)
    tracer = Tracer()
    if trace:
        tracer.install()
    t_start = time.perf_counter()
    config = robandit.harness.config.parse_config(text)
    construct(config)
    t_end = time.perf_counter()
    tracer.uninstall()
    spans, _, _ = tracer.collect()
    out = {
        # the benchmark's own imports and the tracer's patching are left out
        "setup_s": (t_import - t0) + (t_end - t_start),
        "import_s": t_import - t0,
        "spans": {k: [v.calls, v.incl_ns] for k, v in summarize_spans(spans).items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
