"""Record perfbench/reference.json from the current sources.

    python3 perfbench/record_reference.py

Runs one round of every workload at the reference seed and stores the
per-seed (status, iterations) of each batch shape that is compared against
the reference.  Re-record only in a change meant to alter per-seed outcomes,
and say so in that change.
"""

import json
import os
import shutil
import tempfile

from run import REFERENCE, WORK, setup
from workloads import REFERENCE_SEED, WORKLOADS, run_round


def main():
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    reference = {}
    try:
        for workload in WORKLOADS.values():
            cli, configs, _ = setup(workload, workdir)
            tally = run_round(workload, REFERENCE_SEED, configs, workdir, cli.main, {})
            if tally.failed:
                raise SystemExit(f"{workload.name}: {tally.failed} failed operations; not recorded")
            compared = {s.label for s in workload.shapes if s.reference}
            for label, seed, status, iterations in tally.runs:
                if label in compared:
                    reference.setdefault(label, {})[str(seed)] = [status, iterations]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
