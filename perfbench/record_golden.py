"""Record ``golden.json``: the outputs of one pass of every workload.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose verdicts and report are the reference.
The table is recorded at seed 0; the same pass is then repeated at seed 1
and must match it, which shows that the seed changes the inputs but not the
golden labels, witness probe IDs or check outcomes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD_SEED = 0
CHECK_SEED = 1


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    table = {}
    for name in ("paper", "catalog", "form_assembly"):
        table[name] = workloads.run_pass(name, workloads.setup(name, RECORD_SEED))
        failed = workloads.compare(workloads.run_pass(name, workloads.setup(name, CHECK_SEED)), table[name])
        if failed:
            print(f"{name}: seed {CHECK_SEED} differs from seed {RECORD_SEED} on {failed}", file=sys.stderr)
            return 1
        print(f"{name}: {len(table[name])} operations recorded")
    golden = {
        "recorded_at_seed": RECORD_SEED,
        "matched_at_seeds": [RECORD_SEED, CHECK_SEED],
        "workloads": table,
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
