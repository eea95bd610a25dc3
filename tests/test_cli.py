"""Command line surface: outputs, schemas, exit codes."""

import csv
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cfnormal import cli
from cfnormal.cli import _emit_digits, build_parser, main
from cfnormal.core import Convention
from cfnormal.enumeration import SequenceKind
from cfnormal.sieves import pi_prime_joint, pi_prime_linear
from cfnormal.streams import (DigitStream, decode_varints, digit_block,
                              hypothesis_ratios, iter_digit_blocks)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"

AKS_LINE = "2 3 1 2 4 2 1 3"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr()


class TestExpand:
    def test_two_thirds_long(self, capsys):
        out = run_ok(capsys, ["expand", "2/3"]).out
        assert out == "1 1 1\nn a p q\n1 1 1 1\n2 1 1 2\n3 1 2 3\n"

    def test_convention_flag(self, capsys):
        out = run_ok(capsys, ["expand", "2/3", "--conv", "short"]).out
        assert out.splitlines()[0] == "1 2"
        assert out.splitlines()[-1] == "2 2 2 3"


class TestStream:
    def test_first_aks_digits(self, capsys):
        out = run_ok(capsys, ["stream", "--kind", "aks-dup",
                              "--conv", "short", "-n", "8"]).out
        assert out == AKS_LINE   # no trailing newline on digit dumps

    def test_zero_digits(self, capsys):
        assert run_ok(capsys, ["stream", "--kind", "all", "-n", "0"]).out == ""

    def test_header_line(self, capsys):
        out = run_ok(capsys, ["stream", "--kind", "type2", "-n", "3",
                              "--header"]).out
        head, digits = out.split("\n")
        assert head == "cfdigits v1 kind=type2 conv=long"
        assert len(digits.split()) == 3

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "digits.txt"
        out = run_ok(capsys, ["stream", "--kind", "aks-dup", "--conv", "short",
                              "-n", "8", "--out", str(target)]).out
        assert out == ""
        assert target.read_text() == AKS_LINE

    def test_varint_round_trip(self, tmp_path, capsys):
        target = tmp_path / "digits.bin"
        run_ok(capsys, ["stream", "--kind", "all", "--conv", "short",
                        "-n", "15", "--varint", "--out", str(target)])
        assert decode_varints(target.read_bytes()) == \
            [2, 3, 1, 2, 4, 1, 3, 5, 2, 2, 1, 1, 2, 1, 4]

    def test_varint_stdout(self, capfdbinary):
        assert main(["stream", "--kind", "aks-dup", "--conv", "short",
                     "-n", "8", "--varint"]) == 0
        assert decode_varints(capfdbinary.readouterr().out) == \
            [2, 3, 1, 2, 4, 2, 1, 3]

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_varint_header_matches_scalar_stream(self, kind, tmp_path, capsys):
        target = tmp_path / "digits.bin"
        run_ok(capsys, ["stream", "--kind", kind.value, "-n", "5000",
                        "--varint", "--header", "--out", str(target)])
        head, payload = target.read_bytes().split(b"\n", 1)
        assert head == f"cfdigits v1 kind={kind.value} conv=long".encode()
        assert decode_varints(payload) == DigitStream(kind).take(5000)

    def test_text_dump_matches_scalar_stream(self, capsys):
        out = run_ok(capsys, ["stream", "--kind", "type2", "-n", "5000"]).out
        digits = DigitStream(SequenceKind.TYPE2).take(5000)
        assert out == " ".join(str(d) for d in digits)


class TestStreamBlocks:
    """stream writes the digits block by block; the bytes must be those of
    the whole array dumped at once, across every block boundary."""

    FORMATS = [[], ["--varint"], ["--header"], ["--varint", "--header"]]

    @pytest.mark.parametrize("extra", FORMATS)
    @pytest.mark.parametrize("conv", list(Convention))
    def test_equals_one_dump_of_the_whole_array(self, conv, extra, tmp_path,
                                                capsysbinary):
        kind = SequenceKind.ALL_WITH_DUPLICATES
        first = len(next(iter_digit_blocks(kind, conv, 200000)))
        assert len(list(iter_digit_blocks(kind, conv, 200000))) >= 2
        for n in (0, 1, 2, first - 1, first, first + 1, 200000):
            argv = ["stream", "--kind", kind.value, "--conv", conv.value,
                    "-n", str(n)] + extra
            want = tmp_path / "want"
            _emit_digits(digit_block(kind, conv, n), kind,
                         build_parser().parse_args(argv + ["--out", str(want)]))
            assert main(argv) == 0
            assert capsysbinary.readouterr().out == want.read_bytes(), n
            got = tmp_path / "got"
            assert main(argv + ["--out", str(got)]) == 0
            assert got.read_bytes() == want.read_bytes(), n

    def test_zero_digits_truncate_the_out_file(self, tmp_path, capsys):
        target = tmp_path / "digits.txt"
        for extra, want in (([], b""), (["--header"],
                                        b"cfdigits v1 kind=all conv=long\n")):
            target.write_bytes(b"stale")
            run_ok(capsys, ["stream", "--kind", "all", "-n", "0",
                            "--out", str(target)] + extra)
            assert target.read_bytes() == want

    def test_unwritable_out_fails_before_any_digit(self, tmp_path,
                                                   monkeypatch, capsys):
        def no_digits(*args):
            raise AssertionError("digits computed before --out was opened")

        monkeypatch.setattr(cli, "iter_digit_blocks", no_digits)
        target = tmp_path / "no" / "such" / "digits.bin"
        assert main(["stream", "--kind", "all", "-n", str(10 ** 9),
                     "--varint", "--out", str(target)]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_peak_memory_does_not_grow_with_n(self, cli_peak, tmp_path):
        # the whole-array stream peaked at 122 MB for 3e6 digits and 290 MB
        # for 1.2e7; one block at a time holds the same memory for both
        target = tmp_path / "digits.bin"
        peaks = []
        for n in (3 * 10 ** 6, 12 * 10 ** 6):
            code, _, peak_mb = cli_peak(
                ["stream", "--kind", "aks-dup", "--conv", "short", "-n",
                 str(n), "--varint", "--out", str(target)])
            assert code == 0
            peaks.append(peak_mb)
        assert peaks[1] < 1.2 * peaks[0], (
            f"stream peak RSS {peaks[0]:.1f} MB at 3e6 digits, "
            f"{peaks[1]:.1f} MB at 1.2e7")


class TestEmitDigits:
    """A digit list and the same digits as an int64 array dump alike."""

    DIGITS = [1, 2, 127, 128, 16383, 16384, 2 ** 31 - 1, 3]

    @pytest.mark.parametrize("extra", [[], ["--varint"], ["--header"],
                                       ["--varint", "--header"]])
    def test_list_and_array_dump_alike(self, extra, tmp_path):
        dumps = []
        for digits in (self.DIGITS, np.array(self.DIGITS, dtype=np.int64)):
            target = tmp_path / f"dump{len(dumps)}"
            args = build_parser().parse_args(
                ["stream", "--kind", "all", "-n", "1", "--out", str(target)]
                + extra)
            _emit_digits(digits, SequenceKind.ALL_LOWEST_TERMS, args)
            dumps.append(target.read_bytes())
        assert dumps[0] == dumps[1]
        if "--varint" not in extra:
            assert dumps[0].decode("ascii").split("\n")[-1] == \
                " ".join(str(d) for d in self.DIGITS)


class TestStreamFile:
    def test_digits_and_ratio_report(self, tmp_path, capsys):
        src = tmp_path / "indices.txt"
        src.write_text("1 2 3\n4 5\n")
        captured = run_ok(capsys, ["stream-file", str(src), "--conv", "short"])
        assert captured.out == "2 3 1 2 4 1 3"
        doc = json.loads(captured.err)
        jsonschema.validate(doc, load_schema("ratios"))
        assert doc["params"] == {"conv": "short", "N": 1}
        assert [row["N"] for row in doc["rows"]] == [1, 2, 4]

    def test_report_file(self, tmp_path, capsys):
        src = tmp_path / "indices.txt"
        src.write_text(" ".join(str(i) for i in range(1, 40)))
        report = tmp_path / "ratios.json"
        captured = run_ok(capsys, ["stream-file", str(src), "-n", "32",
                                   "--report", str(report)])
        assert len(captured.out.split()) == 32
        assert captured.err == ""
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("ratios"))
        assert doc["params"]["N"] == 8
        for row in doc["rows"]:
            assert row["n_over_sum_len"] <= 1.0

    def test_short_take_skips_diagnostics(self, tmp_path, capsys):
        src = tmp_path / "indices.txt"
        src.write_text("1 2 3 4 5")
        captured = run_ok(capsys, ["stream-file", str(src), "-n", "3",
                                   "--conv", "short"])
        assert captured.out == "2 3 1"
        assert captured.err == ""

    def test_text_dump_matches_scalar_stream(self, tmp_path, capsys):
        indices = [7, 1, 300, 7, 12345, 2]
        src = tmp_path / "indices.txt"
        src.write_text(" ".join(str(i) for i in indices))
        out = run_ok(capsys, ["stream-file", str(src)]).out
        digits = DigitStream(indices=indices, convention=Convention.LONG)
        assert out == " ".join(str(d) for d in digits)

    def test_indices_header(self, tmp_path, capsys):
        src = tmp_path / "indices.txt"
        src.write_text("1")
        out = run_ok(capsys, ["stream-file", str(src), "--header"]).out
        assert out.startswith("cfdigits v1 kind=indices conv=long\n")


class TestStreamFileBlockPath:
    """stream-file resolves every index at once and runs digit_matrix; the
    scalar DigitStream plus hypothesis_ratios is its oracle."""

    @pytest.fixture(scope="class")
    def indices(self):
        rng = np.random.default_rng(8675309)
        picks = rng.integers(1, 10 ** 6, size=1600, endpoint=True)
        # repeats, both adjacent and far apart
        picks = np.concatenate([picks, picks[:300], np.repeat(picks[:50], 2)])
        return rng.permutation(picks).tolist()

    @pytest.fixture(scope="class")
    def oracle(self, indices):
        return DigitStream(indices=indices, convention=Convention.LONG).take(
            10 ** 9)

    @pytest.mark.parametrize("extra", [[], ["--varint"], ["--header"],
                                       ["-n", "777"],
                                       ["--varint", "--header", "-n", "777"]])
    def test_equals_scalar_stream(self, extra, indices, oracle, tmp_path,
                                  capsys):
        assert len(indices) == 2000
        src = tmp_path / "indices.txt"
        src.write_text("\n".join(str(i) for i in indices))
        out, report = tmp_path / "digits", tmp_path / "ratios.json"
        run_ok(capsys, ["stream-file", str(src), "--out", str(out),
                        "--report", str(report)] + extra)
        want = oracle[:777] if "-n" in extra else oracle
        data = out.read_bytes()
        if "--header" in extra:
            head, data = data.split(b"\n", 1)
            assert head == b"cfdigits v1 kind=indices conv=long"
        if "--varint" in extra:
            assert decode_varints(data) == want
        else:
            assert data.decode("ascii") == " ".join(map(str, want))
        fresh = DigitStream(indices=indices, convention=Convention.LONG)
        expected = hypothesis_ratios(fresh, n=len(want) // 4).to_json_dict()
        assert json.loads(report.read_text()) == expected

    def test_unreachable_index_exits_4_fast(self, tmp_path, capsys):
        src = tmp_path / "indices.txt"
        src.write_text(f"5 {10 ** 17} 7")
        start = time.perf_counter()
        assert main(["stream-file", str(src)]) == 4
        assert time.perf_counter() - start < 1.0
        assert "sieve limit" in capsys.readouterr().err


class TestStats:
    def test_schema_and_params_echo(self, capsys):
        out = run_ok(capsys, ["stats", "--kind", "all", "-n", "2000",
                              "--max-digit", "3", "--max-len", "2",
                              "--checkpoint", "500"]).out
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("stats"))
        assert doc["params"] == {"kind": "all", "conv": "long", "N": 2000,
                                 "max_digit": 3, "max_len": 2}
        assert len(doc["rows"]) == 12
        assert set(doc["checkpoints"]) == {"500"}
        assert doc["growth"]["g_ref"] == pytest.approx(1.1865691104156255)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_ok(capsys, ["stats", "--kind", "type3", "-n", "1000",
                            "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # sha256 of the stdout of the whole-array report, before stats read its
    # digits block by block; the checkpoints sit at and around the end of
    # the first block, at stream positions 169080 (long) and 167098 (short)
    @pytest.mark.parametrize("extra, sha256", [
        (["--checkpoint", "169079", "--checkpoint", "169080",
          "--checkpoint", "169081"],
         "9bb6582f0dbd13e2cb9ec1d6804356dec22e2f7f451fadf5cdb7d17317d25511"),
        (["--max-digit", "3", "--max-len", "3", "--conv", "short",
          "--checkpoint", "167096", "--checkpoint", "167097",
          "--checkpoint", "167098", "--checkpoint", "167099"],
         "14895a9b11ff70685cb8fe195f1eb03ca3833d9fc71eea4e401c941d3ae4e73e"),
    ])
    def test_pinned_across_a_block_boundary(self, extra, sha256, capsys):
        out = run_ok(capsys, ["stats", "--kind", "all", "-n", "300000"]
                     + extra).out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_peak_memory_does_not_grow_with_n(self, cli_peak):
        # the whole-array report peaked at 46.0 MB for 5e5 digits and
        # 86.0 MB for 2e6
        peaks = []
        for n in (5 * 10 ** 5, 2 * 10 ** 6):
            code, _, peak_mb = cli_peak(["stats", "--kind", "all",
                                         "-n", str(n)])
            assert code == 0
            peaks.append(peak_mb)
        assert peaks[1] < 1.2 * peaks[0], (
            f"stats peak RSS {peaks[0]:.1f} MB at 5e5 digits, "
            f"{peaks[1]:.1f} MB at 2e6")


class TestCensus:
    def test_json_schema_and_wall_time(self, capsys):
        captured = run_ok(capsys, ["census", "--kind", "all", "-m", "50",
                                   "--eps", "0.25", "--threads", "1"])
        doc = json.loads(captured.out)
        jsonschema.validate(doc, load_schema("census"))
        assert doc["params"]["m"] == 50
        assert doc["total"] == 773
        assert captured.err.startswith("wall_time_s=")

    def test_csv_format(self, capsys):
        out = run_ok(capsys, ["census", "--kind", "all", "-m", "5",
                              "--eps", "0.9", "--format", "csv",
                              "--threads", "1"]).out
        assert out == ("m,kind,eps,s,total,abnormal,ratio\n"
                       "5,all,0.9,1,9,0,0.0\n")

    def test_csv_quotes_a_multi_digit_pattern(self, capsys):
        out = run_ok(capsys, ["census", "--kind", "all", "-m", "50",
                              "--eps", "0.25", "--s", "1,2", "--format", "csv",
                              "--threads", "1"]).out
        header, row = csv.reader(out.splitlines())
        assert len(row) == len(header) == 7
        assert dict(zip(header, row))["s"] == "1,2"
        assert row[:5] == ["50", "all", "0.25", "1,2", "773"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_ok(capsys, ["census", "--kind", "squarefree", "-m", "60",
                            "--eps", "0.3", "--s", "1,2", "--threads", "2",
                            "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


    def test_peak_memory_of_the_benchmark_census(self, cli_peak):
        # the digit-matrix census reached about 306 MB here; the fused
        # kernel holds one chunk of member pairs and no matrix
        code, out, peak_mb = cli_peak(
            ["census", "--kind", "all", "-m", "4096", "--eps", "0.25",
             "--s", "1", "--threads", "1"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["total"], doc["abnormal"]) == (5100019, 2894863)
        assert peak_mb <= 200, f"census peak RSS {peak_mb:.0f} MB > 200 MB"


class TestCounters:
    def test_count_is_bare_json_integer(self, capsys):
        out = run_ok(capsys, ["count", "--kind", "type3", "-m", "7"]).out
        assert out == "6\n"
        jsonschema.validate(json.loads(out), load_schema("count"))

    def test_piprime_linear(self, capsys):
        # 4l+1 is prime for l = 1, 3, 4, 7 and no other l <= 8
        out = run_ok(capsys, ["piprime", "-x", "8", "-q", "4", "-a", "1"]).out
        assert json.loads(out) == pi_prime_linear(8, 4, 1) == 4
        jsonschema.validate(json.loads(out), load_schema("piprime"))

    def test_piprime_joint(self, capsys):
        out = run_ok(capsys, ["piprime", "-x", "200", "-q", "4", "-a", "1",
                              "--q2", "6", "--a2", "1"]).out
        assert json.loads(out) == pi_prime_joint(200, 4, 1, 6, 1) == 27

    def test_constants(self, capsys):
        out = run_ok(capsys, ["constants"]).out
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("constants"))
        assert doc["g"] == pytest.approx(1.1865691104156255, abs=1e-15)
        assert out == json.dumps(doc, sort_keys=True) + "\n"


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["expand", "7/3"],                                  # not in (0, 1)
        ["stream", "--kind", "type9", "-n", "5"],           # unknown kind
        ["census", "--kind", "all", "-m", "2", "--eps", "0.5"],
        ["piprime", "-x", "50", "-q", "4", "-a", "1", "--q2", "6"],
        ["stream", "--kind", "all", "-n", "-3"],
    ])
    def test_validation_errors(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_malformed_index_file(self, tmp_path, capsys):
        src = tmp_path / "indices.txt"
        src.write_text("1 two 3")
        assert main(["stream-file", str(src)]) == 2
        src.write_text("0 1")
        assert main(["stream-file", str(src)]) == 2
        capsys.readouterr()

    def test_io_errors(self, tmp_path, capsys):
        assert main(["stream-file", str(tmp_path / "absent.txt")]) == 3
        assert main(["constants", "--out",
                     str(tmp_path / "no" / "such" / "dir.json")]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_thread_variable(self, value, monkeypatch, capsys):
        monkeypatch.setenv("CFNORMAL_THREADS", value)
        assert main(["census", "--kind", "all", "-m", "50",
                     "--eps", "0.25"]) == 2
        assert "CFNORMAL_THREADS" in capsys.readouterr().err

    def test_resource_guard(self, capsys):
        assert main(["census", "--kind", "all", "-m", "40000",
                     "--eps", "0.25"]) == 4
        assert "resource limit" in capsys.readouterr().err


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cfnormal.cli", "stream", "--kind",
             "aks-dup", "--conv", "short", "-n", "8"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == AKS_LINE

    def test_console_script_exit_code(self):
        proc = subprocess.run(
            ["cfnormal", "census", "--kind", "all", "-m", "2", "--eps", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == 2
