"""End-to-end acceptance checks, one per headline claim.

Every test prints a single "[criterion NN] PASS/FAIL" line with its measured
numbers (outside the capture, so the line shows up on normal runs), then
asserts.  Tolerances are pinned; a criterion the library genuinely cannot
meet at desk scale stays red with the measurement in its message rather than
getting its tolerance quietly loosened.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_PATTERNS, STREAM_N
from cfnormal.cli import main
from cfnormal.core import (Convention, Rational, concat_rationals, convergents,
                           evaluate, evaluate_digits, expand)
from cfnormal.enumeration import SequenceKind, count_R, enumerate_R
from cfnormal.measures import (Pattern, cylinder_geometry, gauss_measure,
                               lebesgue_measure, pattern_grid, sample_gauss)
from cfnormal.sieves import phi_summatory, pi_prime_joint, pi_prime_linear
from cfnormal.streams import FrequencyTracker, GrowthTracker, count_pattern_array

G_REF = 1.1865691


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _best_of_three(fn) -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_first_aks_digits_within_a_millisecond(capsys):
    argv = ["stream", "--kind", "aks-dup", "--conv", "short", "-n", "8"]
    assert main(argv) == 0   # warm the parser and the sieve caches
    capsys.readouterr()
    best = math.inf
    line = ""
    for _ in range(3):
        start = time.perf_counter()
        assert main(argv) == 0
        best = min(best, time.perf_counter() - start)
        line = capsys.readouterr().out
    ok = line == "2 3 1 2 4 2 1 3" and best < 1e-3
    _verdict(capsys, 1, ok,
             f"stream dump {line!r} in {best * 1e3:.3f} ms (warm, best of 3)")


def test_criterion_02_type3_enumeration_prefix(capsys):
    want = [(2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7)]
    grab = lambda: [(r.num, r.den) for r in enumerate_R(SequenceKind.TYPE3, 7)]
    grab()
    best = _best_of_three(grab)
    got = grab()
    ok = got == want and best < 1e-3
    _verdict(capsys, 2, ok, f"first members {got} in {best * 1e3:.3f} ms")


def test_criterion_03_digit_frequency_convergence(capsys, long_digits,
                                                  long_digit_seconds):
    depths = (10 ** 4, 10 ** 5, STREAM_N)
    ok = True
    lines = []
    for kind in SequenceKind:
        digits = long_digits[kind]
        start = time.perf_counter()
        devs = [max(abs(count_pattern_array(digits, s, n) / n - gauss_measure(s))
                    for s in ACCEPTANCE_PATTERNS)
                for n in depths]
        seconds = long_digit_seconds[kind] + time.perf_counter() - start
        kind_ok = (devs[2] < 0.01 or devs[0] > devs[1] > devs[2]) \
            and seconds < 30.0
        ok = ok and kind_ok
        lines.append(f"{kind.value} {devs[0]:.5f}>{devs[1]:.5f}>{devs[2]:.5f}"
                     f" ({seconds:.1f}s)")
    detail = ("max |A_s/N - mu| over 8 patterns at N=1e4/1e5/1e6: "
              + "; ".join(lines)
              + " -- each kind monotone decreasing (the 0.01 head target "
                "needs larger N; decay passes the fallback)")
    _verdict(capsys, 3, ok, detail)


def test_criterion_04_growth_exponent(capsys, long_digits, growth_mc):
    lines = []
    stream_ok = True
    for kind in SequenceKind:
        tracker = GrowthTracker()
        tracker.update_many(long_digits[kind][:STREAM_N].tolist())
        dev = abs(tracker.rate - G_REF)
        stream_ok = stream_ok and dev < 0.02
        lines.append(f"{kind.value} {tracker.rate:.4f}")
    mc_dev = abs(growth_mc.mean - G_REF)
    ok = stream_ok and mc_dev < 0.02
    detail = (f"stream ln(q_N)/N at N=1e6: {'; '.join(lines)} "
              f"(all short of {G_REF} by 0.17-0.24: the average is dominated "
              f"by small denominators whose ln(q)/L sits well under the "
              f"limit, and the gap closes like 1/ln N, far beyond any "
              f"feasible N); Monte Carlo mean ln(q_100)/100 = "
              f"{growth_mc.mean:.5f}, dev {mc_dev:.5f} < 0.02")
    _verdict(capsys, 4, ok, detail)


#: criterion 04's stream figures at N = STREAM_N: the tracker's ln q_N and
#: ln(q_N)/N as the criterion prints it
CRITERION_04_PINS = {
    SequenceKind.ALL_WITH_DUPLICATES: (944972.9944577519, "0.9450"),
    SequenceKind.ALL_LOWEST_TERMS: (967986.4751589948, "0.9680"),
    SequenceKind.SQUAREFREE_BOTH: (978137.6755951984, "0.9781"),
    SequenceKind.TYPE1: (983984.0890133696, "0.9840"),
    SequenceKind.TYPE2: (992555.9847556589, "0.9926"),
    SequenceKind.TYPE3: (1017393.2181694643, "1.0174"),
}


def test_criterion_04_stream_figures_are_pinned(long_digits):
    # criterion 04 stays red whatever its figures are; this pin catches a
    # change in the digits of any kind's stream, or in the tracker
    for kind, (logq, printed) in CRITERION_04_PINS.items():
        tracker = GrowthTracker()
        tracker.update_many(long_digits[kind][:STREAM_N])
        assert tracker.logq == pytest.approx(logq, rel=1e-9), kind
        assert f"{tracker.rate:.4f}" == printed, kind


def test_criterion_06_census_counts_are_pinned(census_ladder):
    # criterion 06 stays red on its last step; its ratios come from these
    assert {m: (r.total, r.abnormal) for m, r in census_ladder.items()} == {
        256: (19947, 13817), 512: (79851, 53059),
        1024: (318963, 193388), 2048: (1275585, 774043)}


def test_criterion_05_totient_summation(capsys):
    exact = phi_summatory(5)
    ratio = phi_summatory(10 ** 4) * math.pi ** 2 / (3.0 * 10.0 ** 8)
    ok = exact == 10 and 0.995 <= ratio <= 1.005
    _verdict(capsys, 5, ok,
             f"phi summatory: exact value {exact} at m=5; "
             f"density ratio {ratio:.6f} at m=1e4")


def test_criterion_06_census_ratio_decay(capsys, census_ladder):
    ms = (256, 512, 1024, 2048)
    ratios = [census_ladder[m].ratio for m in ms]
    scaled = [census_ladder[m].abnormal * math.log(m) / m ** 2 for m in ms]
    strict = all(a > b for a, b in zip(ratios, ratios[1:]))
    spread = max(scaled) / min(scaled)
    wall = sum(census_ladder[m].wall_time for m in ms)
    ok = strict and spread < 3.0 and wall < 60.0
    detail = ("abnormal/total " + " -> ".join(f"{r:.5f}" for r in ratios)
              + f"; scaled abnormal*ln(m)/m^2 spread {spread:.3f}x; "
              f"{wall:.1f}s total"
              + ("" if strict else
                 " -- the 1024 -> 2048 step rises by ~5e-4, so the strict "
                 "decrease clause fails at desk scale even though the "
                 "scaled count stays flat"))
    _verdict(capsys, 6, ok, detail)


def test_criterion_07_oracle_equivalences(capsys):
    failures = []

    # sweep 1 and 3: value round trip both conventions, determinant signs
    pairs = 0
    for den in range(2, 2001):
        for num in range(1, den):
            if math.gcd(num, den) != 1:
                continue
            r = Rational(num, den)
            short = expand(r, Convention.SHORT)
            if evaluate(short) != r or evaluate(expand(r, Convention.LONG)) != r:
                failures.append(f"round trip {num}/{den}")
            cs = convergents(short)
            for prev, cur in zip(cs, cs[1:]):
                if cur.p * prev.q - prev.p * cur.q != (-1) ** (cur.index - 1):
                    failures.append(f"determinant {num}/{den}")
                    break
            pairs += 1

    # sweep 2: closed-form concatenation against literal digit concatenation
    rng = np.random.default_rng(20260816)
    for _ in range(10 ** 4):
        dens = rng.integers(2, 400, size=2)
        nums = [int(rng.integers(1, d)) for d in dens]
        rs = [Rational(n // math.gcd(n, int(d)), int(d) // math.gcd(n, int(d)))
              for n, d in zip(nums, dens)]
        combined = expand(rs[0], Convention.SHORT).digits \
            + expand(rs[1], Convention.SHORT).digits
        want = concat_rationals(rs[0], rs[1], Convention.SHORT)
        if evaluate_digits(combined) != (want.num, want.den):
            failures.append(f"concat {rs}")

    # sweep 4: streaming window counter against a direct window scan
    for case in range(100):
        digits = rng.integers(1, 7, size=int(rng.integers(50, 2000))).tolist()
        pats = {tuple(int(x) for x in rng.integers(1, 7, size=rng.integers(1, 4)))
                for _ in range(int(rng.integers(1, 5)))}
        limit = len(digits) - 3
        tracker = FrequencyTracker(sorted(pats))
        tracker.run(digits, limit=limit)
        got = {p.digits: c for p, c in tracker.as_dict().items()}
        for p in pats:
            naive = sum(1 for i in range(limit)
                        if tuple(digits[i:i + len(p)]) == p)
            if got[p] != naive:
                failures.append(f"pattern case {case} {p}")

    # sweep 5: sieve-backed prime counters against trial division
    def brute_prime(v: int) -> bool:
        if v < 2:
            return False
        f = 2
        while f * f <= v:
            if v % f == 0:
                return False
            f += 1
        return True

    for q, a in ((1, 1), (2, 1), (4, 1), (4, 3), (6, 1), (3, -2)):
        want = sum(1 for l in range(1, 1001) if brute_prime(l * q + a))
        if pi_prime_linear(1000, q, a) != want:
            failures.append(f"linear {q}l+{a}")
    want = sum(1 for l in range(1, 1001)
               if brute_prime(2 * l + 1) and brute_prime(4 * l + 1))
    if pi_prime_joint(1000, 2, 1, 4, 1) != want:
        failures.append("joint 2l+1, 4l+1")

    ok = not failures
    _verdict(capsys, 7, ok,
             f"{pairs} rationals round-tripped with signed determinants, "
             f"1e4 concatenations, 100 counter cases, 7 prime forms; "
             f"failures: {failures if failures else 'none'}")


def test_criterion_08_measure_invariants(capsys):
    rng = np.random.default_rng(11)
    worst_flip = 0.0
    for _ in range(10 ** 4):
        s = tuple(int(d) for d in rng.integers(1, 10, int(rng.integers(1, 9))))
        worst_flip = max(worst_flip,
                         abs(gauss_measure(s) - gauss_measure(s[::-1])))
    widths_ok = all(
        cylinder_geometry(s).upper - cylinder_geometry(s).lower
        == lebesgue_measure(s)
        for s in pattern_grid(5, 2)
        + [tuple(int(d) for d in rng.integers(1, 30, 6)) for _ in range(200)])
    frac = float((sample_gauss(rng.random(10 ** 6)) < 0.5).mean())
    push_dev = abs(frac - math.log2(1.5))
    ok = worst_flip < 1e-12 and widths_ok and push_dev < 0.002
    _verdict(capsys, 8, ok,
             f"reversal gap {worst_flip:.2e} over 1e4 strings; interval "
             f"widths exact: {widths_ok}; pushforward dev {push_dev:.5f} "
             f"at 1e6 samples")


def test_criterion_09_exceptional_set_decay(capsys, ef_report):
    e_logs = [row.log_estimate for row in ef_report.rows_e]
    f_vals = [row.estimate for row in ef_report.rows_f]
    e_dec = all(a > b for a, b in zip(e_logs, e_logs[1:]))
    f_dec = all(a > b for a, b in zip(f_vals, f_vals[1:]))
    ok = e_dec and f_dec
    e_txt = "; ".join(f"N={row.n} ln(mu)={row.log_estimate:.2f}"
                      for row in ef_report.rows_e)
    f_txt = "; ".join(f"N={row.n} mu={row.estimate:.3g} ({row.hits} hits)"
                      for row in ef_report.rows_f)
    _verdict(capsys, 9, ok,
             f"frequency set (tilted sampler): {e_txt} | growth set "
             f"(plain sampler): {f_txt}")


def test_criterion_10_member_count_scaling(capsys):
    ms = (10 ** 3, 10 ** 4, 10 ** 5)
    start = time.perf_counter()
    s1 = [count_R(SequenceKind.TYPE1, m) * math.log(m) / m ** 2 for m in ms]
    s3 = [count_R(SequenceKind.TYPE3, m) * math.log(m) ** 2 / m ** 2
          for m in ms]
    wall = time.perf_counter() - start
    f1 = max(s1) / min(s1)
    f3 = max(s3) / min(s3)
    ok = f1 < 2.0 and f3 < 2.0 and wall < 60.0
    _verdict(capsys, 10, ok,
             f"type1 count*ln(m)/m^2 spread {f1:.4f}x, type3 "
             f"count*ln(m)^2/m^2 spread {f3:.4f}x over m=1e3..1e5 "
             f"({wall:.1f}s)")
