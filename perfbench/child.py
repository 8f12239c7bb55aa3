"""One benchmark sample in a fresh interpreter.

Usage: python child.py <spec-json> <spawn-time>

The spec names the sample directory, the ``etlab`` CLI calls to make and
whether to trace. ``spawn-time`` is the parent's ``time.monotonic()`` just
before it started this process (the clock is system-wide), so ``setup_s``
spans interpreter start-up and ``import etlab.cli``. ``setup_s`` and, in
untraced samples, ``wall_s`` are scaled to the reference host speed by
``hostspeed.SpeedProbe``; ``setup_raw_s`` and ``wall_raw_s`` are the clock
times with the probes' own time taken out. The last line of standard output
is one JSON object with the sample's measurements.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import hostspeed


def _listing(directory: Path) -> dict:
    return {
        e.name: (e.stat().st_size, e.stat().st_mtime_ns)
        for e in os.scandir(directory)
        if e.is_file()
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    spawned = float(sys.argv[2])
    setup_probe = hostspeed.SpeedProbe(hostspeed.SETUP_PY_WEIGHT, with_numpy=False)
    setup_probe.start()
    import etlab.cli

    setup_probe.stop()
    ready = time.monotonic()
    sample = Path(spec["sample_dir"])
    out = sample / "out"
    run_main = etlab.cli.main
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        run_main = tracing.install(tracer)

    result = {
        "setup_s": setup_probe.scaled(ready - spawned),
        "setup_raw_s": ready - spawned - setup_probe.probe_s,
        "rcs": [],
    }
    # Traced samples run no probe, so the spans cover all of their time.
    wall_probe = None if tracer else hostspeed.SpeedProbe(spec["py_weight"])
    wall = 0.0
    files_written = bytes_written = 0
    try:
        for argv in spec["calls"]:
            before = _listing(out) if tracer else {}
            start = time.perf_counter()
            if wall_probe:
                wall_probe.start()
            try:
                rc = run_main(argv)
            finally:
                if wall_probe:
                    wall_probe.stop()
                wall += time.perf_counter() - start
            result["rcs"].append(rc)
            if tracer:
                after = _listing(out)
                changed = [k for k, v in after.items() if before.get(k) != v]
                files_written += len(changed)
                bytes_written += sum(after[k][0] for k in changed)
            # audit mode overwrites audits.json, so keep each call's copy.
            if (out / "audits.json").exists():
                shutil.copyfile(out / "audits.json", sample / f"audits.{argv[0]}.json")
    except Exception:
        result["error"] = traceback.format_exc()
    if wall_probe:
        result["wall_s"] = wall_probe.scaled(wall)
        result["wall_raw_s"] = wall - wall_probe.probe_s
        result["host_speed"] = wall_probe.scale()
    else:
        result["wall_s"] = result["wall_raw_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer and "error" not in result:
        with open(sample / "trace.json", "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f, separators=(",", ":"))
        records = []
        macro_audits = sample / "audits.macro.json"
        if macro_audits.exists():
            records = json.loads(macro_audits.read_text(encoding="utf-8"))["records"]
        result["layers"] = tracing.layer_metrics(
            tracer.spans,
            wall,
            records,
            spec["tau"],
            files_written,
            bytes_written,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
