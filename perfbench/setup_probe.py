"""One set-up as a command-line user pays it, in a fresh interpreter:
``import slowmol.cli``, then load and validate every generated
configuration document listed (one path per line) in the file named by
the first argument.  Prints the two timings as one JSON line.

Usage: python3 perfbench/setup_probe.py CONFIG_LIST
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import slowmol.cli  # noqa: E402,F401
imported = time.perf_counter()
from slowmol.config import load_config  # noqa: E402

for path in Path(sys.argv[1]).read_text(encoding="utf-8").splitlines():
    load_config(path)
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "config_load_s": loaded - imported}))
