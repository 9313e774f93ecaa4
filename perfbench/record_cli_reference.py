"""Record the cli-configs reference: SHA-256 of every CSV and report the six
shipped configs write.

    python3 perfbench/record_cli_reference.py

Run it only at a commit whose CLI output is the accepted reference; the
benchmark's cli-configs check requires these bytes exactly.
"""
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> None:
    sb = run.import_program()
    import numpy as np
    import workloads

    out_dir = run.OUT / "cli_reference"
    w = workloads.cli_configs(out_dir)
    item = w.make_pool(np.random.default_rng(0))[0]
    w.before_op(item)
    codes = w.op(sb, item)
    if any(codes):
        raise SystemExit(f"configs exited with {codes}")
    ref = {"commit": run.git_commit(), "sha256": workloads.cli_digests(out_dir)}
    shutil.rmtree(out_dir)
    with open(workloads.REFERENCE_DIR / "cli_configs.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ref['sha256'])} digests at {ref['commit']}")


if __name__ == "__main__":
    main()
