"""Hash the reports of a fixed grid of preset sessions, for byte-identity checks.

    python3 tests/json_digest.py SRC > digest.txt

SRC is the `src` directory of the checkout under test.  Each output line
is tab-separated:

    name  sha256(RunReport.to_json() + RunReport.human_text())  exit code

Run it on two checkouts and `diff` the outputs: an empty diff means the
same `--json` bytes, the same human text and the same exit code on every
session.  The grid holds 520 sessions: `node` at a = 2..9 with every pair
of weights i != j in 0..a-1, at depths 1 and 3; and every preset at its
default depth and at depths 1, 2 and 5.  It takes a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def grid():
    """(name, preset name, preset parameters, depth or None) per session."""
    for a in range(2, 10):
        for i in range(a):
            for j in range(a):
                if i != j:
                    for depth in (1, 3):
                        yield (f"node/a{a}-i{i}-j{j}-depth{depth}", "node",
                               {"a": a, "i": i, "j": j}, depth)
    from stackdual.presets import list_presets
    for name, _desc, _expect in list_presets():
        for depth in (None, 1, 2, 5):
            yield f"preset/{name}-depth{depth or 'default'}", name, {}, depth


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from stackdual.dsl import parse_session
    from stackdual.presets import preset_session
    from stackdual.session import run_session

    for name, preset, params, depth in grid():
        report = run_session(parse_session(preset_session(preset, **params)),
                             default_depth=depth)
        text = report.to_json() + report.human_text()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{name}\t{digest}\t{report.exit_code()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
