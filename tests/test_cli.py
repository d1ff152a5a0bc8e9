import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from modclique import (
    UncheckedCertificate,
    builtin_certificate,
    normalize,
    parse,
    serialize,
    verify,
)
from modclique.certificate import MAX_FILE_BYTES
from modclique.cli import build_parser, main

from conftest import CERTS_DIR, REPO_ROOT

K15 = str(CERTS_DIR / "k15.cert")
K21 = str(CERTS_DIR / "k21.cert")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "verify", K15)
        assert code == 0
        assert out.strip() == "OK: 4-clique in G_15"

    def test_failing_certificate(self, capsys, tmp_path):
        path = tmp_path / "bad.cert"
        path.write_text("4 3\n0 0 0 0\n0 1 2 3\n0 2 0 2\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL" in out
        assert "(0,2)" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent.cert")
        assert code == 2
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "junk.cert"
        path.write_text("not a certificate\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "line 1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", K15, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"k": 15, "rows": 4, "ok": True, "violations": []}

    def test_json_violations(self, capsys, tmp_path):
        path = tmp_path / "bad.cert"
        path.write_text("4 3\n0 0 0 0\n0 1 2 3\n0 2 0 2\n")
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 1
        assert out == (
            '{"k": 4, "rows": 3, "ok": false, "violations": [{"row_s": 0, '
            '"row_t": 2, "point_a": 0, "point_b": 2, "value": 0}]}\n'
        )


class TestGen:
    def test_writes_verifying_certificate(self, capsys, tmp_path):
        out_path = tmp_path / "p7.cert"
        code, _, err = run(capsys, "gen", "-k", "7", "-o", str(out_path))
        assert code == 0
        assert "7-clique" in err
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 0
        assert "7-clique in G_7" in out

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "gen", "-k", "6")
        assert code == 0
        cert = parse(out)
        assert cert.k == 6 and cert.row_count == 2

    def test_bad_modulus(self, capsys):
        code, _, err = run(capsys, "gen", "-k", "1")
        assert code == 2


class TestTableCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "-k", "20011", "-o"),
            ("gen", "-k", str(2**61 - 1), "-o"),
            ("bound", "20011", "--materialize"),
        ],
    )
    def test_oversized_table_refused_fast(self, capsys, tmp_path, argv):
        out = tmp_path / "big.cert"
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "over the cap" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "-k", "20011", "-s", "3", "--first-found", "--node-limit", "10"),
            ("search", "-k", "200003", "-s", "3", "--node-limit", "10"),
            # one difference mask per row pair: s^2 / 2 slots however small k is
            ("search", "-k", "2", "-s", "100000", "--node-limit", "10"),
            # no free row, but the zero and identity rows are still 2 x k
            ("search", "-k", "200000000", "-s", "2"),
            # 20 value orders of 1020 cells x 1021 values, before any node
            ("search", "-k", "1021", "-s", "3", "--first-found", "--node-limit", "20",
             "--restarts", "20"),
        ],
    )
    def test_oversized_search_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "over the cap" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv_for",
        [
            lambda f, d: ("verify", f),
            lambda f, d: ("compose", K15, f),
            lambda f, d: ("bound", "105", "--registry", d),
            lambda f, d: ("search", "-k", "10", "-s", "4", "--seed", f),
        ],
        ids=["verify", "compose", "bound-registry", "search-seed"],
    )
    def test_tall_table_refused_fast(self, capsys, tmp_path, argv_for):
        # 3,000 random rows over Z_10: about 4.5M row pairs that do not form
        # a clique, which took 28-49 s and about 770 MB to verify without the
        # cap on a 2-vCPU VM
        rng = np.random.default_rng(3000)
        path = tmp_path / "tall.cert"
        path.write_text(serialize(UncheckedCertificate(10, rng.integers(0, 10, (3000, 10)))))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv_for(str(path), str(tmp_path)))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: a table of 3000 rows is over the cap of 1024 rows "
            "that verification admits\n"
        )


class TestCompose:
    def test_round_trip(self, capsys, tmp_path):
        p7 = tmp_path / "p7.cert"
        run(capsys, "gen", "-k", "7", "-o", str(p7))
        out_path = tmp_path / "c105.cert"
        code, _, err = run(capsys, "compose", K15, str(p7), "-o", str(out_path))
        assert code == 0
        assert "G_105" in err
        cert = parse(out_path.read_text())
        assert cert.k == 105 and cert.row_count == 4
        assert verify(cert).ok

    def test_non_verifying_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.cert"
        bad.write_text("4 3\n0 0 0 0\n0 1 2 3\n0 2 0 2\n")
        code, _, err = run(capsys, "compose", str(bad), K15)
        assert code == 1
        assert "FAIL" in err

    def test_non_verifying_input_is_checked_once(self, capsys, tmp_path, monkeypatch):
        import modclique.certificate as certificate

        reports, original = [], certificate._verification_report

        def counted(k, table):
            reports.append(original(k, table))
            return reports[-1]

        monkeypatch.setattr(certificate, "_verification_report", counted)
        bad = tmp_path / "bad.cert"
        bad.write_text("4 3\n0 0 0 0\n0 1 2 3\n0 2 0 2\n")
        code, out, err = run(capsys, "compose", K15, str(bad))
        assert (code, out) == (1, "")
        assert err == f"{bad}: FAIL: 1 non-adjacent row pair(s) in G_4\n"
        # one report per input file: K15's proof and bad.cert's failure
        assert [r.ok for r in reports] == [True, False]


class TestSearch:
    def test_exhaustive_nonexistence(self, capsys):
        code, out, _ = run(capsys, "search", "-k", "9", "-s", "4", "--exhaustive")
        assert code == 1
        assert out.startswith("NONE:")
        assert "nodes=" in out

    def test_found_writes_witness(self, capsys, tmp_path):
        out_path = tmp_path / "w.cert"
        code, out, _ = run(
            capsys, "search", "-k", "7", "-s", "7", "--out", str(out_path)
        )
        assert code == 0
        assert out.startswith("FOUND:")
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 0

    def test_limit_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "search", "-k", "10", "-s", "3", "--node-limit", "50"
        )
        assert code == 3
        assert out.startswith("LIMIT:")

    def test_seeded_search(self, capsys, tmp_path):
        seed_path = tmp_path / "seed.cert"
        row = normalize(builtin_certificate(15)).rows[2]
        seed_path.write_text(f"15 1\n{row}\n")
        out_path = tmp_path / "w15.cert"
        code, out, _ = run(
            capsys, "search", "-k", "15", "-s", "4",
            "--seed", str(seed_path), "--out", str(out_path),
        )
        assert code == 0
        assert verify(parse(out_path.read_text())).ok

    def test_seeded_exhaustion_not_a_global_claim(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "-k", "9", "-s", "3", "--json")
        witness = json.loads(out)["certificate"]["rows"][2]
        seed_path = tmp_path / "seed9.cert"
        seed_path.write_text("9 1\n" + " ".join(map(str, witness)) + "\n")
        code, out, _ = run(
            capsys, "search", "-k", "9", "-s", "4", "--seed", str(seed_path)
        )
        assert code == 1
        assert "NONE UNDER SEED" in out
        assert "NOT claimed" in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "search", "-k", "4", "-s", "3", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["outcome"] == "exhausted-none"
        assert payload["certificate"] is None
        assert payload["nodes"] > 0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = (
            "search", "-k", "15", "-s", "4", "--first-found",
            "--node-limit", "2000000", "--restarts", "40",
            "--rand-seed", "7", "--workers", "1",
        )
        a, b = tmp_path / "a.cert", tmp_path / "b.cert"
        code1, _, _ = run(capsys, *args, "--out", str(a))
        code2, _, _ = run(capsys, *args, "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_more_restarts_than_nodes_refused_fast(self, capsys):
        # each pass gets node_limit // restarts nodes: with none it used to
        # build one engine per pass
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", "-k", "15", "-s", "4", "--first-found",
            "--node-limit", "10", "--restarts", "1000000000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: restart count 1000000000 exceeds node limit 10\n"

    def test_negative_progress_interval_refused(self, capsys):
        code, out, err = run(capsys, "search", "-k", "9", "-s", "4", "--progress", "-1")
        assert code == 2 and out == ""
        assert err == "error: progress interval must be at least 0 seconds, got -1.0\n"

    def test_workers_1_and_2_print_equal_json_and_0_is_refused(self, capsys):
        args = ("search", "-k", "9", "-s", "4", "--json")
        payloads = []
        for workers in ("1", "2"):
            code, out, err = run(capsys, *args, "--workers", workers)
            assert code == 1 and err == ""
            payload = json.loads(out)
            payload.pop("wall_time")
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        code, out, err = run(capsys, *args, "--workers", "0")
        assert code == 2 and out == ""
        assert err == "error: worker count must be at least 1\n"

    def test_first_found_exhaustion_is_a_verdict(self, capsys):
        code, out, _ = run(
            capsys, "search", "-k", "9", "-s", "4", "--first-found",
            "--restarts", "3", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["outcome"] == "exhausted-none"
        assert payload["nodes"] == 84_703
        assert payload["restarts_used"] == 1

    def test_bad_seed_file(self, capsys, tmp_path):
        seed_path = tmp_path / "seed.cert"
        seed_path.write_text("15 1\n" + " ".join(["1"] + ["0"] * 14) + "\n")
        code, _, err = run(
            capsys, "search", "-k", "15", "-s", "4", "--seed", str(seed_path)
        )
        assert code == 2
        assert "normalization" in err


class TestBound:
    def test_single_modulus_provenance_tree(self, capsys):
        code, out, _ = run(capsys, "bound", "105")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "G_105: clique number >= 4 via product 15 x 7"
        assert "stored certificate (4 rows)" in lines[1]
        assert "prime construction (p=7)" in lines[2]

    def test_table(self, capsys):
        code, out, _ = run(capsys, "bound", "--upto", "30")
        assert code == 0
        rows = {
            int(line.split()[0]): line
            for line in out.splitlines()[1:]
        }
        for k in (15, 21, 27):
            assert rows[k].split()[1] == "4"
            assert "stored certificate" in rows[k]
        assert rows[25].split()[1] == "5"
        assert "prime construction" in rows[25]

    def test_materialize(self, capsys, tmp_path):
        out_path = tmp_path / "w105.cert"
        code, _, err = run(capsys, "bound", "105", "--materialize", str(out_path))
        assert code == 0
        cert = parse(out_path.read_text())
        assert cert.k == 105 and cert.row_count == 4
        assert verify(cert).ok

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bound", "105", "--json")
        payload = json.loads(out)
        assert payload["lower_bound"] == 4
        assert payload["provenance"]["kind"] == "product"
        assert payload["provenance"]["left"]["provenance"]["kind"] == "stored"

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--upto", "20", "--json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 19
        assert reports[13]["k"] == 15 and reports[13]["lower_bound"] == 4

    def test_registry_directory(self, capsys):
        code, out, _ = run(capsys, "bound", "15", "--registry", str(CERTS_DIR))
        assert code == 0
        assert ">= 4" in out

    @pytest.mark.parametrize(
        "k,bound,exact", [(2**61 - 1, 2**61 - 1, True), (3 * (2**61 - 1), 3, False)]
    )
    def test_large_modulus_is_fast(self, capsys, k, bound, exact):
        start = time.perf_counter()
        code, out, _ = run(capsys, "bound", str(k), "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        payload = json.loads(out)
        assert (payload["lower_bound"], payload["exact"]) == (bound, exact)

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the product of the first 16 primes: 65,536 divisors
            (("32589158477190044730",), "has 65536 divisors, over the cap of 8192"),
            (("--upto", "1000000000"), "--upto must be at most 32768"),
        ],
        ids=["many-divisors", "upto"],
    )
    def test_unbounded_work_refused_fast(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "bound", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err

    def test_unfactorable_modulus_refused(self, capsys):
        # 2^64 + 13 is prime, so nothing below 1000 divides it
        code, out, err = run(capsys, "bound", str(2**64 + 13))
        assert code == 2 and out == ""
        assert "cannot factor" in err

    def test_requires_exactly_one_form(self, capsys):
        code, _, err = run(capsys, "bound")
        assert code == 2
        code, _, err = run(capsys, "bound", "10", "--upto", "20")
        assert code == 2

    def test_upto_with_materialize_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--upto", "10", "--materialize", "x")
        assert code == 2


class TestCensus:
    def test_all_fields(self, capsys):
        code, out, _ = run(capsys, "census", "-k", "3")
        assert code == 0
        assert out.strip() == "G_3: vertices=27 degree=6 triangles=81 omega=3"

    def test_selected_field(self, capsys):
        code, out, _ = run(capsys, "census", "-k", "4", "--triangles")
        assert code == 0
        assert "triangles=0" in out
        assert "omega" not in out

    def test_cap_refused(self, capsys):
        code, _, err = run(capsys, "census", "-k", "6")
        assert code == 2
        assert "capped" in err

    def test_huge_k_refused_before_k_to_the_k(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "census", "-k", "10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "capped" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "census", "-k", "2", "--json")
        payload = json.loads(out)
        assert payload["omega"] == 2
        assert payload["triangle_count"] == 0
        assert payload["degree"] == 2


class TestUsage:
    def test_parser_built_once(self):
        # every main() call of a process parses with the same parser
        assert build_parser() is build_parser()

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "-k", "7", "-o", "/nonexistent_dir/x.cert"),
            ("search", "-k", "7", "-s", "7", "--out", "/nonexistent_dir/x.cert"),
            ("bound", "105", "--materialize", "/nonexistent_dir/x.cert"),
        ],
    )
    def test_unwritable_output_path(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err


class TestBrokenPipe:
    def test_closed_stdout_exits_141_quietly(self):
        # the table is about 90 KB, more than a pipe buffers, so the CLI is
        # still writing when the reader closes the pipe after one line
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "modclique", "bound", "--upto", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first.split() == [b"k", b"bound", b"exact", b"derivation"]
        assert err == b""
        assert proc.returncode == 141


# every path on which the CLI reads a certificate file: argv for a file f
# inside a directory d
READ_PATHS = {
    "verify": lambda f, d: ("verify", f),
    "compose-left": lambda f, d: ("compose", f, K15),
    "compose-right": lambda f, d: ("compose", K15, f),
    "search-seed": lambda f, d: ("search", "-k", "15", "-s", "4", "--seed", f),
    "bound-registry": lambda f, d: ("bound", "105", "--registry", d),
}
BAD_INPUTS = {
    "missing": None,
    "malformed": b"not a certificate\n",
    "non-utf8": b"\xff\xfe15 4\n\x80\n",
    # a valid certificate, padded past the reader's byte cap with blank lines
    "oversized": (CERTS_DIR / "k15.cert").read_bytes().ljust(MAX_FILE_BYTES + 1, b"\n"),
}


class TestInputErrors:
    @pytest.mark.parametrize("content", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    @pytest.mark.parametrize("argv_for", READ_PATHS.values(), ids=READ_PATHS.keys())
    def test_input_error_exits_2_with_one_line(self, capsys, tmp_path, argv_for, content):
        path = tmp_path / "input.cert"
        if content is not None:
            path.write_bytes(content)
        argv = argv_for(str(path), str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1
        # a registry with no file at all can only name its directory
        named = tmp_path if content is None and "--registry" in argv else path
        assert str(named) in err

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
    def test_endless_input_refused_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "/dev/zero")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: /dev/zero: file is over the cap of {MAX_FILE_BYTES} bytes\n"
