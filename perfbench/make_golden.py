"""Write golden_cli.json: the CLI records the cli-requests oracle compares
against, made with the code in src/.

    python3 perfbench/make_golden.py

Run it only at a commit whose answers are trusted; the records are the
reference later commits are checked against.
"""

import json
import sys

import run

run.import_program()
from workloads import HERE, PROP35, golden_requests, run_cli  # noqa: E402


def main():
    golden = {}
    for key in golden_requests():
        argv = [str(PROP35) if a == "prop35.alg" else a for a in key]
        code, rec = run_cli(argv)
        golden[" ".join(key)] = {"code": code, "results": rec["results"]}
    path = HERE / "golden_cli.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
