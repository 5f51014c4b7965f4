"""Write golden.json: every output the benchmark's seed can draw, as produced
by the program at the current commit.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known good; the benchmark compares
later commits against this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import env  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    env.cap_blas_threads()
    env.use_source_tree()
    golden = {}
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        out = os.path.join(tmp, "out.csv")
        for _, step in workloads.all_steps():
            if step.key in golden or step.exp.oracle:
                continue
            result = workloads.run_step(step, out)
            if step.exp.kind == "cli":
                entry = {"exit": result}
                if result == 0:
                    with open(out, encoding="utf-8") as fh:
                        entry["csv"] = check.parse_csv(fh.read())
                    os.remove(out)
            elif step.exp.kind == "fsf":
                entry = {"leaf": check.fingerprint(result[0])}
            else:
                entry = {"value": result}
            golden[step.key] = entry
            print(step.key, entry.get("exit", "ok"), file=sys.stderr)
    doc = {"provenance": env.provenance(), "entries": golden}
    with open(os.path.join(env.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
