#!/usr/bin/env python3
"""Run one mfpce CLI invocation in a fresh process and report what it cost.

    python3 worker.py JOB_JSON

``JOB_JSON`` is a JSON object with:

* ``src``: the directory holding the ``mfpce`` package;
* ``spawned``: the parent's ``time.monotonic()`` taken just before the
  spawn (the clock is shared between processes on one host);
* ``argv``: the CLI arguments, or ``null`` to stop after the import;
* ``trace``: wrap the mfpce layers (see ``tracer.py``) and write spans;
* ``run_id``: the label stored with each span;
* ``result``: the file that receives the report.

The report holds ``setup_s`` (spawn until ``mfpce.cli`` and its
dependencies are imported), ``run_s`` (wall time of ``mfpce.cli.main``),
``rc``, ``maxrss_mb`` and, when traced, ``spans``.
"""

import gc
import json
import resource
import sys
import time


def _close_external_models(models_module) -> None:
    # The CLI never closes stream-mode children; close them here so that
    # none outlives this worker.
    for obj in gc.get_objects():
        if isinstance(obj, models_module.ExternalModel):
            obj.close()


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import mfpce.cli

    report = {"setup_s": time.monotonic() - job["spawned"]}
    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer(job["run_id"])
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            report["rc"] = mfpce.cli.main(job["argv"])
        finally:
            report["run_s"] = time.perf_counter() - start
            _close_external_models(sys.modules["mfpce.models"])
        if tracer is not None:
            tracing.uninstall(tracer)
            report["spans"] = tracer.spans
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
