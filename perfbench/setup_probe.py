"""One set-up sample: import causalinv, load, normalize and split a corpus.

Usage: setup_probe.py SRC_DIR CSV SCHEMA SEED

Prints ``time.monotonic()`` once the split exists. The clock is
system-wide, so the parent subtracts the moment it started this process.
"""

import sys
import time

src, csv_path, schema_path, seed = sys.argv[1:5]
sys.path.insert(0, src)
from causalinv.data import load_dataset, normalize, split_half  # noqa: E402

split_half(normalize(load_dataset(csv_path, schema_path)), int(seed))
print(repr(time.monotonic()))
