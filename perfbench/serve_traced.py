"""Launch the scheduler server with the benchmark's span wrappers installed.

Same server as ``repro serve`` (it calls ``repro.service.serve``), plus
span tracing and the ``repro.obs.counters`` catalog.  On shutdown it
writes the spans and counts to the output file.

Usage: python perfbench/serve_traced.py SRC_DIR OUT_JSON POLICY SYSTEM_SIZE
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    src, out, policy, system_size = sys.argv[1:]
    sys.path.insert(0, src)
    from repro.service import serve

    import tracing

    tracer = tracing.Tracer()
    tracer.label = policy
    with tracing.traced(tracer) as counts:
        serve(port=0, policy=policy, system_size=int(system_size))
    Path(out).write_text(json.dumps(
        {"tracer": tracer.dump(), "counts": counts.as_dict()}
    ) + "\n")
