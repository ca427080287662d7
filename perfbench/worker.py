"""One round of one workload, in a fresh process: ``cli.main`` on a config.

    python3 perfbench/worker.py COMMAND CONFIG OUT RESULT T_SPAWN [--trace]

T_SPAWN is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so ``setup_s`` covers interpreter start, imports and config
load up to the first call into the workload (``experiments.run``). The
round's figures go to RESULT as JSON. The parent sets the thread variables.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    command, config, out, result_path, t_spawn = argv[:5]
    traced = "--trace" in argv[5:]
    sys.path.insert(0, str(ROOT / "src"))
    import vqls_precond
    from vqls_precond import cli

    if Path(vqls_precond.__file__).resolve().parent != ROOT / "src" / "vqls_precond":
        print(f"imported {vqls_precond.__file__}, not this checkout's src/", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()

    record = {}
    workload = cli.run

    def timed_run(cfg):
        record["t_start"] = _clock()
        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            return workload(cfg)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF)
            record["wall_s"] = _clock() - record["t_start"]
            record["user_s"] = after.ru_utime - before.ru_utime
            record["sys_s"] = after.ru_stime - before.ru_stime

    cli.run = timed_run
    rc = cli.main([command, "--config", config, "--out", out])
    if rc != 0 or "wall_s" not in record:
        return rc or 1
    result = {
        "setup_s": record["t_start"] - float(t_spawn),
        "wall_s": record["wall_s"],
        "cpu_s": record["user_s"] + record["sys_s"],
        "user_s": record["user_s"],
        "sys_s": record["sys_s"],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "layers": tracer.summary() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
