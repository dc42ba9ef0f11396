"""Record the output digests that every benchmark run checks its ops against.

Runs one cycle of the default seed (the ``pool`` inputs built during set-up)
through each workload, checks each output, and writes
perfbench/digests/<workload>.json, mapping each input to the digest of its
output.  A cycle is the whole corpus, in every seed, so these cover every op
of every run.  Run it only on a commit whose outputs are known to be right; a
later run fails every op whose output differs from the recorded one or whose
input has none recorded.

    python3 perfbench/record_digests.py [workload ...]
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile

from run import DEFAULT_SEED
from worker import DIGESTS, OUT_DIR, run_op

import workloads


def record(wl) -> dict[str, str]:
    table: dict[str, str] = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for spec, arg in itertools.islice(workloads.inputs(wl, DEFAULT_SEED, workdir), wl.pool):
            _dt, digest, err = run_op(wl, spec, arg, workdir, None)
            if err or table.get(spec.key, digest) != digest:
                raise SystemExit(f"{wl.name}: {spec.key}: {err or 'output differs between runs'}")
            table[spec.key] = digest
    return table


def main(names: list[str]) -> int:
    DIGESTS.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        table = record(workloads.WORKLOADS[name])
        (DIGESTS / f"{name}.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(table)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
