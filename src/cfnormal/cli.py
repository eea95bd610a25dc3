"""Batch command line front end.

Every subcommand maps onto one library call and prints machine-readable
output: digit dumps for the stream commands, JSON or CSV for the report
commands, bare numbers for the counters.  Exit codes discriminate failure
classes so shell pipelines can react: 0 success, 2 argument or validation
error, 3 I/O error, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import BinaryIO, Iterator, Optional, Sequence, Union

import numpy as np

from .census import NormalityParams, run_census
from .core import Convention, Rational, convergents, expand
from .enumeration import SequenceKind, check_indices, count_R, members_at
from .errors import ResourceLimitError
from .measures import Pattern, constants
from .sieves import pi_prime_joint, pi_prime_linear
# digit_block stays importable here: the benchmark tracer's self-test
# checks that it wraps cli.digit_block
from .streams import (digit_block, encode_varints, flat_digits,  # noqa: F401
                      format_header, iter_digit_blocks, length_ratios,
                      normality_report)


@contextlib.contextmanager
def _open_sink(path: Optional[str], binary: bool):
    """stdout, or the file at path created or truncated, for text or bytes."""
    if path is None or path == "-":
        sys.stdout.flush()
        out = sys.stdout.buffer if binary else sys.stdout
        yield out
        out.flush()
    elif binary:
        with open(path, "wb") as fh:
            yield fh
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_text(path: Optional[str], text: str) -> None:
    with _open_sink(path, binary=False) as fh:
        fh.write(text)


def _emit_digits(digits: Union[Sequence[int], np.ndarray, Iterator[np.ndarray]],
                 kind: Optional[SequenceKind],
                 args: argparse.Namespace, sink: BinaryIO) -> None:
    """Write a digit dump to sink: space-separated text or varint bytes, no
    trailing newline, with the one-line header prepended when --header is set.

    digits is one sequence of digits, or an iterator of digit blocks, each
    written as it arrives.
    """
    if args.header:
        sink.write(format_header(kind, args.conv).encode("ascii") + b"\n")
    blocks = digits if isinstance(digits, Iterator) else (digits,)
    skip = 1  # the separator before the first digit is not written
    step = 1 << 16
    for block in blocks:
        values = np.asarray(block, dtype=np.int64)
        if args.varint:
            sink.write(encode_varints(values))
        else:
            # a slice at a time keeps the text buffer small
            for i in range(0, len(values), step):
                sink.write(_decimal(values[i:i + step])[skip:].tobytes())
                skip = 0
        del block, values  # freed before the next block is computed


#: 10, 100, ..., 10**18: a value v >= 0 has 1 + searchsorted(v, "right") digits
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _decimal(values: np.ndarray) -> np.ndarray:
    """ASCII of " " + str(v) for each v of a non-empty int64 array of values
    >= 0, as one uint8 buffer.  The digits are written from the last place
    up: one divmod by 10 per place over the values still that long."""
    if values.min() < 0:
        raise ValueError("the decimal dump takes nonnegative digits")
    width = np.searchsorted(_POWERS_OF_TEN, values, side="right") + 2
    place = np.cumsum(width) - 1  # the last place of each value
    text = np.full(int(place[-1]) + 1, ord(" "), dtype=np.uint8)
    rest = values
    while len(rest):
        rest, digit = np.divmod(rest, 10)
        text[place] = digit + ord("0")
        longer = rest > 0
        rest = rest[longer]
        place = place[longer] - 1
    return text


def _emit_json(path: Optional[str], doc) -> None:
    _write_text(path, json.dumps(doc, sort_keys=True) + "\n")


def cmd_expand(args: argparse.Namespace) -> int:
    r = Rational.parse(args.rational)
    e = expand(r, args.conv)
    lines = [" ".join(str(d) for d in e.digits), "n a p q"]
    for c, a in zip(convergents(e)[1:], e.digits):
        lines.append(f"{c.index} {a} {c.p} {c.q}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError("n must be >= 0")
    # open the dump first: an unwritable --out fails before any digit
    with _open_sink(args.out, binary=True) as sink:
        _emit_digits(iter_digit_blocks(args.kind, args.conv, args.n),
                     args.kind, args, sink)
    return 0


def cmd_stream_file(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        indices = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"index file {args.path!r} holds non-integer tokens")
    # a bad index fails before the dump is opened, and so leaves an existing
    # --out as it was; an unwritable --out fails before any lookup
    check_indices(SequenceKind.ALL_LOWEST_TERMS, indices)
    with _open_sink(args.out, binary=True) as sink:
        num, den = members_at(SequenceKind.ALL_LOWEST_TERMS, indices)
        digits, lengths = flat_digits(num, den, args.conv)
        if args.n is not None:
            digits = digits[:max(args.n, 0)]
        _emit_digits(digits, None, args, sink)
    # Diagnostic ratios need checkpoints at n, 2n, 4n inside the emitted
    # prefix; anything shorter than 4 digits has nothing to report.
    if len(digits) >= 4:
        report = length_ratios(lengths, args.conv, len(digits) // 4)
        payload = json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
        if args.report:
            _write_text(args.report, payload)
        else:
            sys.stderr.write(payload)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    report = normality_report(args.kind, args.conv, args.n,
                              max_digit=args.max_digit, max_len=args.max_len,
                              checkpoints=args.checkpoint or ())
    _emit_json(args.out, report.to_json_dict())
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    params = NormalityParams(args.eps, Pattern.parse(args.s), args.conv)
    report = run_census(args.kind, args.m, params, threads=args.threads)
    if args.format == "csv":
        _write_text(args.out, report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    else:
        _emit_json(args.out, report.to_json_dict())
    sys.stderr.write(f"wall_time_s={report.wall_time:.3f}\n")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    print(count_R(args.kind, args.m))
    return 0


def cmd_piprime(args: argparse.Namespace) -> int:
    if (args.q2 is None) != (args.a2 is None):
        raise ValueError("the joint count needs both --q2 and --a2")
    if args.q2 is not None:
        print(pi_prime_joint(args.x, args.q, args.a, args.q2, args.a2))
    else:
        print(pi_prime_linear(args.x, args.q, args.a))
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    c = constants()
    _emit_json(args.out, {"g": c.g, "G": c.G, "log2": c.log2})
    return 0


def _add_conv(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--conv", type=Convention.from_string,
                        default=Convention.LONG, metavar="{short,long}",
                        help="expansion convention (default: long)")


def _add_kind(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", type=SequenceKind.from_string, required=True,
                        metavar="KIND",
                        help="rational sequence: aks-dup, all, squarefree, "
                             "type1, type2, type3 (aliases accepted)")


def _add_dump_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--header", action="store_true",
                        help="prepend the one-line cfdigits header")
    parser.add_argument("--varint", action="store_true",
                        help="binary varint digits instead of text")
    parser.add_argument("--out", metavar="PATH",
                        help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfnormal",
        description="Continued fraction digit streams, normality statistics, "
                    "and rational censuses.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", help="digits and convergents of one rational")
    p.add_argument("rational", help="the rational, e.g. 2/3")
    _add_conv(p)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("stream", help="dump the first N concatenated digits")
    _add_kind(p)
    _add_conv(p)
    p.add_argument("-n", type=int, required=True, help="digits to emit")
    _add_dump_flags(p)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("stream-file",
                       help="concatenate expansions picked by an index file")
    p.add_argument("path", help="whitespace-separated 1-based indices into "
                                "the lowest-terms enumeration")
    _add_conv(p)
    p.add_argument("-n", type=int, default=None,
                   help="emit at most N digits (default: all)")
    _add_dump_flags(p)
    p.add_argument("--report", metavar="PATH",
                   help="write the ratio diagnostics to PATH (default: stderr)")
    p.set_defaults(func=cmd_stream_file)

    p = sub.add_parser("stats", help="pattern frequencies and growth report")
    _add_kind(p)
    _add_conv(p)
    p.add_argument("-n", type=int, required=True, help="stream digits to scan")
    p.add_argument("--max-digit", type=int, default=5)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--checkpoint", type=int, action="append", metavar="N",
                   help="also report pattern rows at this prefix (repeatable)")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("census", help="classify every rational with den <= m")
    _add_kind(p)
    _add_conv(p)
    p.add_argument("-m", type=int, required=True, help="denominator bound")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--s", default="1", metavar="PATTERN",
                   help="comma-separated digit pattern (default: 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: CFNORMAL_THREADS or cores)")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("count", help="closed-form member count for den <= m")
    _add_kind(p)
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("piprime", help="primes along one or two linear forms")
    p.add_argument("-x", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-a", type=int, required=True)
    p.add_argument("--q2", type=int, default=None)
    p.add_argument("--a2", type=int, default=None)
    p.set_defaults(func=cmd_piprime)

    p = sub.add_parser("constants", help="g, G, and ln 2")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_constants)

    return parser


#: built on the first main call and kept: building it takes a few ms, and a
#: warm `stream -n 8` call is held under 1 ms
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
