"""One benchmark process: a fresh interpreter that imports ``stablesde`` and
calls its CLI entry point on one workload's steps.

    python3 perfbench/child.py LAUNCH RESULT [WORKLOAD OUT SEED TRACE]

LAUNCH is the caller's ``time.time()`` just before it started this process,
so ``setup_s`` covers interpreter start-up plus ``import stablesde.cli``.
With only LAUNCH and RESULT the process is a set-up probe and stops after
the import. The measurements go to the JSON file RESULT; with TRACE=1 the
spans go beside it in RESULT.spans.json.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main(argv, cli, setup_s: float) -> int:
    result_path = Path(argv[2])
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported stablesde from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if len(argv) > 3:
        name, out, seed, trace = argv[3], Path(argv[4]), argv[5], argv[6] == "1"
        seed = None if seed == "-" else int(seed)
        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rcs = [cli.main(step.argv(str(out / step.label), seed))
               for step in WORKLOADS[name].steps]
        wall = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall, rcs=rcs,
            cpu_s=(usage1.ru_utime + usage1.ru_stime
                   - usage0.ru_utime - usage0.ru_stime),
            peak_rss_mb=usage1.ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = spans.summarize(tracer.spans, tracer.counts)
            Path(f"{result_path}.spans.json").write_text(json.dumps(
                {"fields": ["id", "name", "parent", "start", "end"],
                 "spans": tracer.spans, "counts": tracer.counts}))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    import stablesde.cli
    sys.exit(main(sys.argv, stablesde.cli, time.time() - float(sys.argv[1])))
