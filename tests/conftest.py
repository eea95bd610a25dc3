"""Session fixtures for the expensive artifacts shared across test modules.

Everything here is deterministic: fixed seeds, fixed thread caps, fixed
denominators.  Session scope means the million-digit streams, the census
ladder, and the Monte Carlo decay run are computed once no matter how many
tests consume them.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cfnormal
from cfnormal.census import (NormalityParams, ef_decay_estimates,
                             mc_growth_rate, resolve_threads, run_census)
from cfnormal.core import Convention
from cfnormal.enumeration import SequenceKind
from cfnormal.measures import Pattern
from cfnormal.streams import digit_block

#: the pattern set the frequency criteria quantify over
ACCEPTANCE_PATTERNS = tuple(
    Pattern(t) for t in ((1,), (2,), (3,), (4,), (5,), (1, 1), (1, 2), (2, 1)))

STREAM_N = 10 ** 6


def ratio_rows(lengths, n):
    """The ratio rows at N = n, 2n, 4n of a stream whose members have these
    expansion lengths, as to_json_dict writes them, in a plain loop: M is the
    first member whose running length reaches N."""
    rows, targets = [], [n, 2 * n, 4 * n]
    total = longest = 0
    for m, length in enumerate(lengths, 1):
        total += length
        longest = max(longest, length)
        while targets and total >= targets[0]:
            t = targets.pop(0)
            rows.append({"N": t, "M": m, "sum_len": total, "max_len": longest,
                         "n_over_sum_len": t / total,
                         "n_max_len_over_sum_len": t * longest / total,
                         "m_over_n": m / t})
        if not targets:
            break
    return rows

# child interpreters (`python -m cfnormal.cli`) import the package that the
# tests imported, wherever pytest found it
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(cfnormal.__file__).parents[1]),
                  os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def _long_digit_data():
    arrays = {}
    seconds = {}
    for kind in SequenceKind:
        start = time.perf_counter()
        arrays[kind] = digit_block(kind, Convention.LONG, STREAM_N + 1)
        seconds[kind] = time.perf_counter() - start
    return arrays, seconds


@pytest.fixture(scope="session")
def long_digits(_long_digit_data):
    """kind -> the first 10**6 + 1 Long-convention stream digits.

    The extra digit is read-ahead so length-2 patterns starting at position
    10**6 can be resolved.
    """
    return _long_digit_data[0]


@pytest.fixture(scope="session")
def long_digit_seconds(_long_digit_data):
    """kind -> wall seconds spent generating its million-digit block."""
    return _long_digit_data[1]


@pytest.fixture(scope="session")
def census_ladder():
    """m -> CensusReport at eps=0.25, s=[1], Long, for m in 256..2048."""
    params = NormalityParams(0.25, Pattern((1,)))
    return {m: run_census(SequenceKind.ALL_LOWEST_TERMS, m, params)
            for m in (256, 512, 1024, 2048)}


@pytest.fixture(scope="session")
def ef_report():
    """The full-size E/F decay run: 10**5 samples per pass, depths to 10**4.

    This is the one genuinely slow fixture (a few minutes; three worker
    processes when available).
    """
    threads = min(3, resolve_threads())
    return ef_decay_estimates(checkpoints=(100, 1000, 10 ** 4),
                              n_samples=10 ** 5, seed=20260816,
                              threads=threads)


@pytest.fixture(scope="session")
def growth_mc():
    return mc_growth_rate(depth=100, n_samples=10 ** 4, seed=7)


#: runs argv[1:] as a child and prints its exit code and peak RSS in KiB,
#: then the child's stdout
_LAUNCHER = ("import resource, subprocess, sys\n"
             "run = subprocess.run(sys.argv[1:], capture_output=True)\n"
             "peak = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
             "print(run.returncode, peak.ru_maxrss)\n"
             "sys.stdout.write(run.stdout.decode())\n")


def run_cli_with_peak(argv):
    """(exit code, stdout, peak RSS in MB) of `python -m cfnormal.cli argv`.

    A child's ru_maxrss starts from its parent's resident size at the fork,
    so a small launcher interpreter, not the test process, starts the
    command and reads its peak.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m",
         "cfnormal.cli", *argv], capture_output=True, text=True, check=True)
    status, out = proc.stdout.split("\n", 1)
    code, peak_kib = map(int, status.split())
    return code, out, peak_kib / 1024   # ru_maxrss is in KiB on Linux


@pytest.fixture(scope="session")
def cli_peak():
    """run_cli_with_peak, for tests that measure a command's own memory."""
    return run_cli_with_peak
