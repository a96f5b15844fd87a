"""Rewrite digests.json: the stdout SHA-256 of every request at the committed seed.

    python3 perfbench/record_digests.py

Run it only on code whose outputs are known good; the benchmark then counts
any request whose stdout differs from these bytes as failed.
"""

from __future__ import annotations

import json
import shutil

import checks
import run
import workloads

COMMITTED_SEED = 0


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    try:
        digests = {"walls": {}, "grid": {}}
        for workload, keys in (("walls", ["walls"]),
                               ("grid", [c for c, _ in workloads.F1_ATLAS])):
            for key in keys:
                req = run.cli_request(key, run.cli_argv(workload, key))
                problems = run.check_cli(workload, req, {workload: {}})
                if problems:
                    raise SystemExit(f"{workload} {key}: {problems}")
                digests[workload][key] = checks.sha256(req.out)
        count = 512
        records, _ = run.zariski_worker(COMMITTED_SEED, count=count)
        digests["zariski"] = {
            "seed": COMMITTED_SEED, "count": count,
            "sha256": checks.sha256("\n".join(r["out"] for r in records).encode())}
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
