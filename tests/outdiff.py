"""Compare two pipeline out_dirs byte for byte outside their `created` fields.

    python tests/outdiff.py OUT_A OUT_B

prints every file that only one of the two holds or that differs, and
exits 1 if there is any. Only the JSON "created" timestamps are masked;
every other byte, the config hash included, must match.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_CREATED = re.compile(rb'"created": "[^"]*"')


def _masked(path: Path) -> bytes:
    return _CREATED.sub(b'"created": ""', path.read_bytes())


def out_dir_diff(a, b) -> list[str]:
    """Relative paths of the files that differ between out_dirs a and b.

    A file held by one side only counts as different.
    """
    a, b = Path(a), Path(b)
    names = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    return [str(name) for name in names
            if not ((a / name).is_file() and (b / name).is_file())
            or _masked(a / name) != _masked(b / name)]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    differ = out_dir_diff(sys.argv[1], sys.argv[2])
    print("\n".join(differ) or "identical outside created fields")
    sys.exit(1 if differ else 0)
