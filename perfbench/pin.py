"""Pin the sha256 of every report of the default seed into pins.json.

    python3 perfbench/pin.py

Run once, at the commit whose reports are the reference; ``run.py`` then
fails any job whose input is pinned and whose report bytes differ.  Every
report is also passed through the other exactness checks first, so a wrong
report is never pinned.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import coiso.cli as cli

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pins = {}
    with run.TaskTimer(cli) as timer:
        for workload in workloads.WORKLOADS:
            outdir = run.OUT / f"{workload}-seed0"
            count = workloads.pass_count(workload, seconds)
            passes = workloads.build(workload, 0, count, outdir)
            run.validate(workload, passes)
            for jobs in passes:
                for job in jobs:
                    if job.digest in pins:
                        continue
                    res = run.run_job(cli, timer, job)
                    failures = checks.check_job(job, res.code, res.text, {})
                    if failures:
                        sys.stderr.write(f"not pinned, {job.scenario}: {failures}\n")
                        return 1
                    pins[job.digest] = checks.report_digest(res.text)
            print(f"{workload}: {len(pins)} reports pinned so far")
    checks.PINS_PATH.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")
    print(f"{len(pins)} digests written to {checks.PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
