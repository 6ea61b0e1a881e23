"""One cold set-up of a workload in a fresh interpreter.

Imports the verifier, builds the workload's inputs and opens its session,
then exits; the caller times the whole process.  Run from the repository
root with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.setup_probe table1 7
"""

from __future__ import annotations

import sys

from repro.service import VerifyJob, VerifySession

from perfbench import inputs


def main(argv: list) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload == "table1":
        [inputs.table1_job(program) for program in inputs.table1_programs(seed)]
        VerifySession()
    elif workload == "crate-cold":
        VerifyJob(source=inputs.crate_source(inputs.stress_crate(seed)), name="crate")
        VerifySession(jobs=inputs.CRATE_JOBS)
    else:
        print(f"no in-process set-up for workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
