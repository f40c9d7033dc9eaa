"""Entry point of the solve benchmark; see bench/README.md.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs from a checkout of the repository: the solver is imported from its
``src`` directory, not from an installed copy.
"""

import os
import sys
from pathlib import Path

# one BLAS thread unless the caller says otherwise; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    if not (_SRC / "ddsolve" / "__init__.py").is_file():
        print(f"benchmark broken: solver sources not found under {_SRC.name}/ddsolve",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(_SRC))
    import harness

    sys.exit(harness.main())
