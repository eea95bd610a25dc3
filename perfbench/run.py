"""Benchmark of cfnormal: five workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it reads the package from
``src/`` and writes scratch files under ``.perfbench_work/``.  NAME is one
of the workloads below, or ``all`` to run each in turn.

Each workload is a closed loop: one client runs the workload's operations
in sequence, each in a fresh interpreter (``op.py``), and starts the next
iteration while fewer than S seconds have passed and another fits.  Every
operation's output is checked; an operation that exits non-zero or fails
its check counts against ``ok_frac``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics: the traced iterations wrap the package's layer functions
from outside (``tracer.py``), census workers included, and the untraced ones
give ``trace.overhead_s``.  Traced outputs must be byte-identical to
untraced ones.  A layer that does not run on a workload reports 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit and sample count, and the run's context (seed, git
SHA, core count, Python and numpy versions, input sizes).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

from tracer import merge_counters

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = json.loads((BENCH / "reference.json").read_text())

KHINCHIN_LEVY = math.pi ** 2 / (12.0 * math.log(2.0))
CENSUS_THREADS = 2
N_INDICES = 5000
MAX_INDEX = 10 ** 6
#: a Monte Carlo figure may sit this many standard errors from its reference
MC_SIGMAS = 5.0
#: operations still running this long after the run started are killed, so
#: a run ends within three minutes even when the program hangs
RUN_LIMIT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "digits_per_s": "1/s",
    "ok_frac": "ratio",
}

LAYER_UNITS = {"s": "s", "mb": "MB", "rss_mb": "MB", "matrix_mb": "MB",
               "useful_frac": "ratio", "parallel_eff": "ratio",
               "unattributed_frac": "ratio", "bytes": "B",
               "tilted_ns_per_row_step": "ns", "occurrences_s": "s",
               "worker_busy_s": "s", "step_s": "s", "tilted_s": "s",
               "pilot_s": "s", "overhead_s": "s"}

#: layer -> its metrics.  Every layer also reports rss_mb, the process peak
#: RSS at the end of its last span.  Times are summed over the processes of
#: an operation, so with two census workers they can exceed wall_s.  Each
#: layer should move these end-to-end metrics on these workloads:
#:   sieves.tables      wall_s on index
#:   enumeration.block  wall_s on census and stream
#:   enumeration.index  wall_s on index
#:   core.expand        wall_s on index
#:   streams.euclid     wall_s and peak_rss_mb on stream and stats; on census
#:                      only its .s moves (every row is kept there)
#:   streams.flatten    wall_s and peak_rss_mb on stream
#:   streams.count      wall_s on stats
#:   streams.growth     wall_s on stats
#:   streams.scalar     wall_s on index
#:   cli.serialise      wall_s and peak_rss_mb on stream
#:   census.classify    wall_s and cpu_s on census
#:   census.sampler     wall_s on montecarlo
LAYERS = {
    "sieves.tables": ("s", "builds", "limit"),
    "enumeration.block": ("s", "rows"),
    "enumeration.index": ("s", "calls", "count_R_calls"),
    "core.expand": ("s", "calls"),
    "streams.euclid": ("s", "rows", "digits", "matrix_mb", "useful_frac"),
    "streams.flatten": ("s", "mb"),
    "streams.count": ("s", "calls"),
    "streams.growth": ("s", "digits"),
    "streams.scalar": ("s", "digits"),
    "cli.serialise": ("s", "bytes"),
    "census.classify": ("s", "occurrences_s", "chunks", "workers",
                        "pairs_per_chunk_max", "worker_busy_s",
                        "parallel_eff"),
    "census.sampler": ("step_s", "tilted_s", "pilot_s", "row_steps",
                       "tilted_ns_per_row_step"),
}


def per_layer_names() -> list[str]:
    names = [f"{layer}.{m}" for layer, ms in LAYERS.items()
             for m in ms + ("rss_mb",)]
    return names + ["trace.overhead_s", "trace.unattributed_frac"]


def metric_unit(name: str) -> str:
    return END_TO_END.get(name) or LAYER_UNITS.get(name.rsplit(".", 1)[1],
                                                   "count")


# ---------------------------------------------------------------------------
# operations


@dataclasses.dataclass
class Op:
    """One operation: a CLI call (argv) or a cfnormal.census call."""

    name: str
    check: Callable[["OpRecord"], bool]
    argv: Optional[list[str]] = None
    call: Optional[str] = None
    kwargs: Optional[dict] = None
    files: tuple[Path, ...] = ()  # outputs besides stdout


@dataclasses.dataclass
class OpRecord:
    op: Op
    exit_code: int
    stdout: bytes
    files: dict[str, bytes]
    setup_s: float = math.nan
    wall_s: float = math.nan
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    window: tuple[float, float] = (math.nan, math.nan)
    spans: Optional[list[dict]] = None  # one trace document per process
    ok: bool = False

    def digest(self) -> str:
        h = hashlib.sha256(self.stdout)
        for name in sorted(self.files):
            h.update(self.files[name])
        return h.hexdigest()


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for proc and return its resource usage together with that of the
    children it waited for, which are the census workers.  At the deadline,
    or when the benchmark itself is stopped, kill the operation's process
    group and wait (a few seconds at most) until the group is gone."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError
            time.sleep(0.02)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        if not isinstance(exc, TimeoutError):
            raise
        sys.stderr.write(f"killed operation pid {proc.pid} at the run's "
                         "time limit\n")
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_op(op: Op, work: Path, trace: bool = False,
           deadline: float = math.inf) -> OpRecord:
    """Run one operation in a fresh interpreter and check its output."""
    for path in op.files:
        path.unlink(missing_ok=True)
    tag = f"{op.name}-{time.monotonic_ns()}"
    spec = {"src": str(SRC), "timing": str(work / f"{tag}.timing.json")}
    if op.argv is not None:
        spec["argv"] = op.argv
    else:
        spec["call"], spec["kwargs"] = op.call, op.kwargs
    if trace:
        spec["trace_dir"] = str(work / f"{tag}.trace")
        os.mkdir(spec["trace_dir"])
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = work / f"{tag}.stdout"
    with open(out_path, "wb") as out, open(work / f"{tag}.stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "op.py"), str(spec_path)],
            stdout=out, stderr=err, cwd=work, start_new_session=True)
        usage = _reap(proc, deadline)
    rec = OpRecord(op=op, exit_code=proc.returncode,
                   stdout=out_path.read_bytes(),
                   files={p.name: p.read_bytes() for p in op.files
                          if p.exists()},
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   peak_rss_mb=usage.ru_maxrss / 1024.0)
    timing_path = Path(spec["timing"])
    if timing_path.exists():
        timing = json.loads(timing_path.read_text())
        rec.setup_s = timing["ready"] - spawned
        rec.wall_s = timing["end"] - timing["ready"]
        rec.window = (timing["ready"], timing["end"])
    if trace:
        rec.spans = [json.loads(p.read_text()) for p in
                     sorted(Path(spec["trace_dir"]).glob("spans-*.json"))]
    rec.ok = rec.exit_code == 0 and len(rec.files) == len(op.files) \
        and check_op(op, rec)
    return rec


def check_op(op: Op, rec: OpRecord) -> bool:
    try:
        return bool(op.check(rec))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        sys.stderr.write(f"check of {op.name} raised {exc!r}\n")
        return False


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass
class Plan:
    """A workload's operations for one seed, with its size in digits."""

    ops: list[Op]
    digits: int
    sizes: dict


def plan_stream(seed: int, work: Path) -> Plan:
    out = work / "stream.bin"
    ref = REFERENCE["stream"]
    n = 3_000_000
    op = Op("stream",
            argv=["stream", "--kind", "aks-dup", "--conv", "short", "-n",
                  str(n), "--varint", "--out", str(out)],
            files=(out,),
            check=lambda r: _sha256(r.files[out.name]) == ref["sha256"]
            and len(r.files[out.name]) == ref["bytes"])
    return Plan([op], n, {"n": n, "kind": "aks-dup", "conv": "short",
                          "format": "varint", "bytes": ref["bytes"]})


def plan_stats(seed: int, work: Path) -> Plan:
    n = 1_000_000
    checkpoints = (100_000, 500_000)
    argv = ["stats", "--kind", "all", "-n", str(n), "--max-digit", "5",
            "--max-len", "2"]
    for c in checkpoints:
        argv += ["--checkpoint", str(c)]
    op = Op("stats", argv=argv,
            check=lambda r: _sha256(r.stdout) == REFERENCE["stats"]["sha256"])
    return Plan([op], n, {"n": n, "kind": "all", "max_digit": 5,
                          "max_len": 2, "checkpoints": list(checkpoints)})


def plan_census(seed: int, work: Path) -> Plan:
    nproc = len(os.sched_getaffinity(0))
    if CENSUS_THREADS > nproc:
        raise SystemExit(f"census needs {CENSUS_THREADS} worker processes "
                         f"but only {nproc} cores are available")
    ref = REFERENCE["census"]
    m = 4096
    op = Op("census",
            argv=["census", "--kind", "all", "-m", str(m), "--eps", "0.25",
                  "--s", "1", "--threads", str(CENSUS_THREADS)],
            check=lambda r: _sha256(r.stdout) == ref["sha256"])
    return Plan([op], ref["digits"],
                {"m": m, "kind": "all", "eps": 0.25, "s": [1],
                 "threads": CENSUS_THREADS, "rationals": ref["total"],
                 "digits": ref["digits"]})


def _check_ef(r: OpRecord, n_samples: int) -> bool:
    ref = REFERENCE["montecarlo"]
    doc = json.loads(r.stdout)
    for row in doc["rows_e"]:
        if abs(row["log_estimate"] - ref["e_log_estimate"][str(row["N"])]) \
                > MC_SIGMAS * row["rel_stderr"]:
            return False
    for row in doc["rows_f"]:
        p = ref["f_estimate"][str(row["N"])]
        if abs(row["estimate"] - p) > MC_SIGMAS * math.sqrt(
                p * (1.0 - p) / n_samples):
            return False
    return len(doc["rows_e"]) == len(doc["rows_f"]) == len(ref["f_estimate"])


def _check_growth(r: OpRecord, depth: int) -> bool:
    # E ln q_n = n g + c + o(1), so the depth-limited mean sits c/depth
    # below g; c was measured at the commit that added this benchmark
    doc = json.loads(r.stdout)
    expected = KHINCHIN_LEVY + REFERENCE["montecarlo"]["growth_offset"] / depth
    return abs(doc["mean"] - expected) <= MC_SIGMAS * doc["stderr"]


def plan_montecarlo(seed: int, work: Path) -> Plan:
    import numpy as np
    ef_seed, growth_seed = (int(s) for s in
                            np.random.default_rng(seed).integers(0, 2 ** 31,
                                                                 size=2))
    ef = {"checkpoints": [100, 1000], "n_samples": 10_000, "seed": ef_seed,
          "threads": 1}
    growth = {"depth": 100, "n_samples": 100_000, "seed": growth_seed}
    ops = [Op("ef_decay", call="ef_decay_estimates", kwargs=ef,
              check=lambda r: _check_ef(r, ef["n_samples"])),
           Op("growth", call="mc_growth_rate", kwargs=growth,
              check=lambda r: _check_growth(r, growth["depth"]))]
    # sampled digits: two tilt pilots (2 Newton rounds of 1500 rows x 1200
    # digits each, the _tune_theta defaults), two tilted passes and one
    # plain pass to the deepest checkpoint, then the growth run
    pilot = 2 * 2 * 1500 * 1200
    passes = 3 * max(ef["checkpoints"]) * ef["n_samples"]
    digits = pilot + passes + growth["depth"] * growth["n_samples"]
    return Plan(ops, digits, {"ef_decay_estimates": ef,
                              "mc_growth_rate": growth,
                              "sampled_digits": digits})


def _index_oracle(indices) -> tuple[str, dict]:
    """Digits and ratio rows for the index file, from members_block and
    digit_matrix instead of the rational_at path under test."""
    import numpy as np
    from cfnormal.core import Convention
    from cfnormal.enumeration import SequenceKind, count_R, members_block
    from cfnormal.streams import digit_matrix, flatten_digit_matrix
    kind = SequenceKind.ALL_LOWEST_TERMS
    d_hi = 3
    while count_R(kind, d_hi - 1) < max(indices):
        d_hi = 2 * d_hi
    num, den = members_block(kind, 2, d_hi)
    pick = np.asarray(indices, dtype=np.int64) - 1
    mat, lengths = digit_matrix(num[pick], den[pick], Convention.LONG)
    digits = flatten_digit_matrix(mat, lengths)
    text = " ".join(str(d) for d in digits.tolist())
    n = len(digits) // 4
    ends = np.cumsum(lengths)
    rows = []
    for target in (n, 2 * n, 4 * n):
        m = int(np.searchsorted(ends, target)) + 1  # rational holding target
        sum_len = int(ends[m - 1])
        max_len = int(lengths[:m].max())
        rows.append({"N": target, "M": m, "sum_len": sum_len,
                     "max_len": max_len, "n_over_sum_len": target / sum_len,
                     "n_max_len_over_sum_len": target * max_len / sum_len,
                     "m_over_n": m / target})
    return text, {"params": {"conv": "long", "N": n}, "rows": rows}


def plan_index(seed: int, work: Path) -> Plan:
    import numpy as np
    indices = np.random.default_rng(seed).integers(
        1, MAX_INDEX, size=N_INDICES, endpoint=True).tolist()
    index_file = work / "indices.txt"
    index_file.write_text("\n".join(str(i) for i in indices) + "\n")
    text, report = _index_oracle(indices)
    report_file = work / "ratios.json"
    counts = REFERENCE["count"]
    type2_m, squarefree_m = 10 ** 6, 200_000
    ops = [
        Op("stream_file",
           argv=["stream-file", str(index_file), "--report", str(report_file)],
           files=(report_file,),
           check=lambda r: r.stdout.decode("ascii") == text
           and json.loads(r.files[report_file.name]) == report),
        Op("count_type2", argv=["count", "--kind", "type2", "-m", str(type2_m)],
           check=lambda r: r.stdout
           == f"{counts[f'type2_{type2_m}']}\n".encode()),
        Op("count_squarefree",
           argv=["count", "--kind", "squarefree", "-m", str(squarefree_m)],
           check=lambda r: r.stdout
           == f"{counts[f'squarefree_{squarefree_m}']}\n".encode()),
    ]
    digits = len(text.split())
    return Plan(ops, digits, {"indices": N_INDICES, "max_index": MAX_INDEX,
                              "stream_file_digits": digits,
                              "count_type2_m": type2_m,
                              "count_squarefree_m": squarefree_m})


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "stream": plan_stream,
    "stats": plan_stats,
    "census": plan_census,
    "montecarlo": plan_montecarlo,
    "index": plan_index,
}


# ---------------------------------------------------------------------------
# measuring


def run_loop(plan: Plan, work: Path, seconds: float,
             traced: bool) -> list[tuple[bool, list[OpRecord]]]:
    """Closed loop for `seconds`: iterations until the next would not fit.

    A traced run alternates untraced and traced iterations and has at least
    one of each.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    done: list[tuple[bool, list[OpRecord]]] = []
    lengths: list[float] = []
    while True:
        trace = traced and len(done) % 2 == 1
        t0 = time.monotonic()
        done.append((trace, [run_op(op, work, trace, deadline)
                             for op in plan.ops]))
        lengths.append(time.monotonic() - t0)
        if traced and len(done) < 2:
            continue
        if time.monotonic() - start + statistics.median(lengths) > seconds:
            return done


def _union_length(intervals: list[list[float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(records: list[OpRecord]) -> dict[str, float]:
    """Per-layer figures of one traced iteration (trace.overhead_s aside)."""
    totals: dict[str, dict[str, float]] = {layer: {} for layer in LAYERS}
    rss: dict[str, float] = {}
    workers = 0
    classify_wall = covered = wall = 0.0
    for rec in records:
        wall += rec.wall_s
        intervals = []
        chunk_procs = 0
        for doc in rec.spans or ():
            intervals += doc["intervals"]
            for layer, counters in doc["layers"].items():
                merge_counters(totals.setdefault(layer, {}), counters)
            for layer, mb in doc["rss_mb"].items():
                rss[layer] = max(rss.get(layer, 0.0), mb)
            chunk_procs += doc["layers"].get("census.classify", {}).get(
                "chunks", 0) > 0
        if chunk_procs:
            workers = max(workers, chunk_procs)
            classify_wall += rec.wall_s
        covered += _union_length(intervals, *rec.window)

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        t = totals[layer]
        for name in names:
            out[f"{layer}.{name}"] = float(t.get(name, 0))
        out[f"{layer}.rss_mb"] = rss.get(layer, 0.0)
    euclid = totals["streams.euclid"]
    if euclid.get("digits"):
        kept = euclid["digits"] - euclid.get("block_digits", 0) \
            + euclid.get("block_kept", 0)
        out["streams.euclid.useful_frac"] = kept / euclid["digits"]
    classify = totals["census.classify"]
    out["census.classify.workers"] = float(workers)
    if workers:
        out["census.classify.parallel_eff"] = \
            classify.get("worker_busy_s", 0.0) / (classify_wall * workers)
    sampler = totals["census.sampler"]
    if sampler.get("tilted_row_steps"):
        out["census.sampler.tilted_ns_per_row_step"] = \
            sampler["tilted_s"] / sampler["tilted_row_steps"] * 1e9
    out["trace.unattributed_frac"] = 1.0 - covered / wall
    return out


def _median_dict(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _op_medians(iterations: list[list[OpRecord]], field: str) -> list[float]:
    """Median of `field` for each operation of the workload, over the
    iterations in which it got as far as reporting its timings."""
    out = []
    for i in range(len(iterations[0])):
        values = [getattr(recs[i], field) for recs in iterations
                  if not math.isnan(recs[i].wall_s)]
        out.append(statistics.median(values) if values else math.nan)
    return out


def summarise(plan: Plan, done: list[tuple[bool, list[OpRecord]]],
              traced: bool) -> tuple[dict, dict, dict]:
    """Metrics of one run, how each was sampled, and the attempted/failed
    tally."""
    plain = [recs for trace, recs in done if not trace]
    reference = {rec.op.name: rec.digest() for rec in plain[0]}
    attempted = failed = 0
    for trace, recs in done:
        for rec in recs:
            attempted += 1
            same = not trace or rec.digest() == reference[rec.op.name]
            if not (rec.ok and same):
                failed += 1
                sys.stderr.write(f"operation {rec.op.name} failed: exit "
                                 f"{rec.exit_code}, check ok {rec.ok}, "
                                 f"output as untraced {same}\n")
    tally = {"attempted": attempted, "failed": failed}
    # a workload's time is the sum over its operations of each one's median
    wall = sum(_op_medians(plain, "wall_s"))
    per_op = f"sum over operations of the median of {len(plain)} iterations"
    if not traced:
        setups = [r.setup_s for recs in plain for r in recs
                  if not math.isnan(r.setup_s)]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(_op_medians(plain, "peak_rss_mb")),
            "cpu_s": sum(_op_medians(plain, "cpu_s")),
            "digits_per_s": plan.digits / wall,
            "ok_frac": (attempted - failed) / attempted,
        }
        notes = {"wall_s": per_op, "cpu_s": per_op,
                 "setup_s": f"median of {len(setups)} interpreter starts",
                 "peak_rss_mb": f"largest operation median of {len(plain)} "
                                "iterations",
                 "digits_per_s": f"{plan.digits} digits / wall_s",
                 "ok_frac": f"of {attempted} operations"}
        return metrics, notes, tally
    traced_recs = [recs for trace, recs in done if trace]
    metrics = _median_dict([layer_metrics(recs) for recs in traced_recs])
    metrics["trace.overhead_s"] = \
        sum(_op_medians(traced_recs, "wall_s")) - wall
    notes = {name: f"median of {len(traced_recs)} traced iterations"
             for name in metrics}
    notes["trace.overhead_s"] = (f"traced minus untraced wall_s, "
                                 f"{len(traced_recs)} and {len(plain)} "
                                 "iterations")
    return metrics, notes, tally


def context(seed: int, plan: Plan) -> dict:
    import numpy as np
    try:
        # the ceiling keeps git from reporting a repository around the
        # checkout when the checkout itself is not one
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {"seed": seed, "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "sizes": plan.sizes}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 work: Path) -> dict:
    plan = WORKLOADS[name](seed, work)
    # compile bytecode and warm the page cache; users do not pay this per call
    run_op(Op("warm_up", argv=["constants"], check=lambda r: True), work)
    done = run_loop(plan, work, seconds, traced)
    metrics, notes, tally = summarise(plan, done, traced)
    print(f"perfbench workload={name} trace={int(traced)} "
          f"context={json.dumps(context(seed, plan), sort_keys=True)}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {metric_unit(key):6s} "
              f"({notes[key]})")
    if name == "census" and not traced:
        rate = plan.sizes["rationals"] / metrics["wall_s"]
        print(f"  {'rationals_per_s':40s} {rate:14.6g} 1/s")
    if name == "montecarlo" and not traced:
        print(f"  {'sample_digits_per_s':40s} "
              f"{metrics['digits_per_s']:14.6g} 1/s")
    print(f"  operations attempted {tally['attempted']}, failed "
          f"{tally['failed']}")
    return {"correct": tally["failed"] == 0, **tally,
            "metrics": {k: {"value": v, "unit": metric_unit(k)}
                        for k, v in metrics.items()}}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "cfnormal" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no cfnormal sources under {SRC}; run "
                         "from the root of a cfnormal checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still kills the operation it is waiting for and
    # removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), work)
                   for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {n: r["metrics"] for n, r in results.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
