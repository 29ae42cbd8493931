"""Write ``digests.json``: the frozen baseline labels of segment-frame, per seed.

Run from the root of a checkout:

    python3 perfbench/freeze_digests.py

It covers the card seeds ``0 .. FROZEN_SEED_COUNT - 1``, the only ones the
workload uses.  The digest of seed ``s`` is ``labels_digest`` of
``segment(make_test_card(s), THRESHOLD, "baseline")``.  Rewrite the file only
when a change is meant to alter the segmentation output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from bloomprim import segmentation  # noqa: E402
from workloads import (  # noqa: E402
    FROZEN_DIGESTS, FROZEN_SEED_COUNT, THRESHOLD, labels_digest, make_test_card)


def main() -> None:
    baseline = {
        str(seed): labels_digest(segmentation.segment(make_test_card(seed), THRESHOLD, "baseline").labels)
        for seed in range(FROZEN_SEED_COUNT)
    }
    FROZEN_DIGESTS.write_text(json.dumps({"baseline": baseline}, indent=1) + "\n")


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
