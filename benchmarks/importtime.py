"""What a perfbench workload's set-up imports, under ``python -X importtime``.

Run from the repository root::

    python3 benchmarks/importtime.py --workload fleet-catalog
    make importtime W=fleet-catalog

Runs the workload's ``setup`` (``perfbench/workloads.py``, the part of a
pass timed as ``setup_s``) in a fresh interpreter under ``-X importtime``
and prints how many ``repro`` modules it loaded, their source lines, the
time its imports took and their ten largest cumulative entries, so a
change that adds an eager import shows up here before it shows up in
``setup_s``.  numpy is already loaded (the harness imports it), as it is
when perfbench times ``setup_s``.  Without a bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``, or a fresh checkout) every imported
source is compiled, and the times include that.

``tests/test_imports.py`` holds the fleet set-up to its import budget
through :func:`setup_imports`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: written to stderr between the harness's own imports and the set-up's
MARK = "-- set-up starts --"

_CHILD = r"""
import json, sys, tempfile
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
sys.stderr.write("%s\n")
with tempfile.TemporaryDirectory() as tmp:
    WORKLOADS[sys.argv[1]](sys.argv[1], 1, tmp, False).setup()
files = {m: getattr(sys.modules[m], "__file__", None) for m in sys.modules if m.split(".")[0] == "repro"}
print(json.dumps(files))
""" % MARK


def run_python(script: str, *args: str, flags: Tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run ``script`` with ``args`` in a fresh interpreter (given
    ``flags``) at the repository root, with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def setup_imports(workload: str) -> Tuple[Dict[str, Optional[str]], str]:
    """The ``repro`` modules ``workload``'s set-up loads (name -> source
    file) and the ``-X importtime`` report of the imports it made."""
    proc = run_python(_CHILD, workload, flags=("-X", "importtime"))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout), proc.stderr.split(MARK, 1)[1]


def parse_importtime(stderr: str) -> List[Tuple[int, str]]:
    """``(cumulative_us, name)`` per ``-X importtime`` entry; the name
    keeps two spaces of indent per level of nesting."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        rows.append((int(cumulative_us), name[1:].rstrip()))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in workloads])
    args = parser.parse_args(argv)

    files, report = setup_imports(args.workload)
    lines = sum(len(Path(f).read_text().splitlines()) for f in files.values() if f)
    rows = parse_importtime(report)
    # Top-level entries (no indent) add up to every import the set-up made.
    total_us = sum(c for c, name in rows if not name.startswith(" "))
    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"{args.workload} set-up (bytecode cache {cache}): "
          f"{len(files)} repro modules, {lines} source lines, "
          f"imports {total_us / 1e3:.1f} ms")
    print("largest cumulative entries:")
    for cumulative_us, name in sorted(rows, reverse=True)[:10]:
        print(f"  {cumulative_us / 1e3:8.1f} ms  {name.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
