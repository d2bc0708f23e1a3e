"""Pin OpenBLAS/OpenMP to one thread for the test process before numpy loads.

OpenBLAS reads these variables once, when numpy is first imported, and at its
default thread count small matrix products spread widely in wall time on a
few cores. Tests that need another setting pass their own environment to a
subprocess.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
