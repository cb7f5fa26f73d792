"""Set-up of one benchmark run, timed from outside by bench/run.py.

    python3 bench/setup_probe.py <workload> <seed>

Imports blochlab from the checkout's src/ and generates the workload's inputs
(corpora, self-maps and their certificates), then exits.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
