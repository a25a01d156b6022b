"""Write reference.json, the expected outputs the benchmark checks jobs against.

    PYTHONPATH=src python3 bench/reference.py

`zn_sha256[N]` is the SHA-256 of the stdout of `pasep zn --n N --method
closed` (the canonical string and a newline); every route must reproduce
it.  `verify_all_checks` is the number of checks `pasep verify --suite all`
runs, so that a shrunken or vacuous verify run counts as a failure.
"""

import hashlib
import json
from pathlib import Path

from pasep import formulas, verify
from pasep.polyring import canonical_string

SIZES = (7, 12)

if __name__ == "__main__":
    reference = {
        "zn_sha256": {
            str(n): hashlib.sha256((canonical_string(formulas.zn_closed(n)) + "\n").encode()).hexdigest()
            for n in SIZES
        },
        "verify_all_checks": sum(len(rep.checks) for rep in verify.run_suite("all")),
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(reference, indent=2) + "\n")
    print(out.read_text(), end="")
