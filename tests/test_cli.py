import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k3lat import _exact as ex
from k3lat import cli
from k3lat._exact import LimitExceeded
from k3lat.fqf import signature_mod8
from k3lat.hmdata import parse_symbol
from k3lat.intlat import MAX_GRAM_RANK

from conftest import cap_child_memory, child_env, dense_diagonal_gram


@pytest.fixture
def gram_a2(tmp_path):
    path = tmp_path / "gram_a2.json"
    path.write_text(json.dumps({"rank": 2, "gram": [[2, -1], [-1, 2]]}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSymbol:
    def test_a2(self, capsys, gram_a2):
        code, out = run(capsys, ["symbol", gram_a2])
        assert code == 0 and out.strip() == "3^-1"

    def test_json_deterministic(self, capsys, gram_a2):
        _, out1 = run(capsys, ["--json", "symbol", gram_a2])
        _, out2 = run(capsys, ["--json", "symbol", gram_a2])
        assert out1 == out2
        assert json.loads(out1)["symbol"] == "3^-1"


class TestDisc:
    def test_a2(self, capsys, gram_a2):
        code, out = run(capsys, ["--json", "disc", gram_a2])
        assert code == 0
        payload = json.loads(out)
        assert payload["cyclic_orders"] == [3]

    def test_dense_gram_prints_reduced_lifts(self, capsys, tmp_path):
        # unreduced, this Gram's lifts ran past Python's 4,300-digit limit on
        # int-to-str conversion, and the command exited 2
        gram = dense_diagonal_gram(1, 36, 108)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"gram": [list(row) for row in gram]}))
        code, out = run(capsys, ["--json", "disc", str(path)])
        assert code == 0
        payload = json.loads(out)
        for d, lift in zip(payload["cyclic_orders"], payload["generator_lifts"]):
            assert all(0 <= Fraction(x) * d < d for x in lift)


class TestEmbeds:
    def test_positive_with_certificate(self, capsys):
        code, out = run(capsys, ["embeds", "--qs", "4_3^-1 3^-1 7^-1",
                                 "--rank", "21", "--p", "7", "--sigma", "1"])
        assert code == 0
        assert "embeds" in out and "4_5^-1 3^+1 7^-1" in out

    def test_negative_exit_code(self, capsys):
        code, out = run(capsys, ["embeds", "--qs", "4_3^-1 3^-1 7^-1",
                                 "--rank", "21", "--p", "3", "--sigma", "1"])
        assert code == 1
        assert "does not embed" in out

    def test_bad_symbol_is_usage_error(self, capsys):
        code = cli.main(["embeds", "--qs", "6^+1", "--rank", "1",
                         "--p", "3", "--sigma", "1"])
        assert code == 2


class TestTable:
    def test_small_prime_set_with_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out = run(capsys, ["table", "--primes-below", "8",
                                 "--report", str(report_path)])
        assert code == 0
        assert "67/67" in out
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["rows_passed"] == 67
        row170 = next(r for r in payload["rows"] if r["no"] == 170)
        assert row170["computed"] == "7"

    def test_table_has_no_threads_flag(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["table", "--primes-below", "6", "--threads", "2"])
        assert err.value.code == 2


class TestProot:
    def test_check_positive(self, capsys, tmp_path):
        from k3lat.rootsys import build, named_elements

        gx = named_elements(build("D4"))["gx"]
        gen_file = tmp_path / "gens.json"
        gen_file.write_text(json.dumps(
            {"root_lattice": "D4", "generators": [[list(r) for r in gx.matrix]]}))
        code, out = run(capsys, ["--json", "proot-check", "--root-lattice", "D4",
                                 "--p", "3", "--generators", str(gen_file)])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"pseudo": True, "full": True, "sharp_index": 9,
                           "witness_root": None, "fixed_rank": 0}

    def test_check_negative(self, capsys, tmp_path):
        from k3lat.rootsys import build, named_elements

        g = named_elements(build("D4"))["g"]
        gen_file = tmp_path / "gens.json"
        gen_file.write_text(json.dumps(
            {"root_lattice": "D4", "generators": [[list(r) for r in g.matrix]]}))
        code, out = run(capsys, ["--json", "proot-check", "--root-lattice", "D4",
                                 "--p", "3", "--generators", str(gen_file)])
        assert code == 1
        assert json.loads(out)["pseudo"] is False

    @staticmethod
    def check_a2_cycle(capsys, tmp_path, file_label):
        # the 3-cycle of A2: alpha_1 -> alpha_2 -> -alpha_1 - alpha_2
        gen_file = tmp_path / "gens.json"
        gen_file.write_text(json.dumps(
            {"root_lattice": file_label, "generators": [[[0, -1], [1, -1]]]}))
        return run(capsys, ["--json", "proot-check", "--root-lattice", "A(2)",
                            "--p", "3", "--generators", str(gen_file)])

    @pytest.mark.parametrize("file_label", ["A(2)", " a2"])
    def test_generator_file_label_is_read_like_the_option(self, capsys, tmp_path,
                                                          file_label):
        code, out = self.check_a2_cycle(capsys, tmp_path, file_label)
        assert code == 0
        assert json.loads(out)["full"] is True

    @pytest.mark.parametrize("file_label", ["A3", 2])
    def test_generator_file_for_another_lattice_is_usage_error(self, capsys, tmp_path,
                                                               file_label):
        code, out = self.check_a2_cycle(capsys, tmp_path, file_label)
        assert code == 2 and out == ""

    def test_classify(self, capsys):
        code, out = run(capsys, ["--json", "proot-classify",
                                 "--root-lattice", "D5", "--p", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["partial"] is False
        assert sorted(c["order"] for c in payload["classes"]) == [1, 2]

    def test_classify_empty_partial_scope_is_exit_3(self, capsys):
        code, _ = run(capsys, ["proot-classify", "--root-lattice", "E7", "--p", "3"])
        assert code == 3


    def test_classify_has_no_threads_flag(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["proot-classify", "--root-lattice", "D4", "--p", "3",
                      "--threads", "2"])
        assert err.value.code == 2


class TestErrorModel:
    @pytest.mark.parametrize("limit", [
        LimitExceeded("subgroup closure cap hit"),
        LimitExceeded("group closure exceeds the cap of 10 elements"),
        LimitExceeded("subgroup enumeration cap exceeded"),
    ])
    def test_limits_are_exit_3(self, monkeypatch, limit):
        def hit_limit(args):
            raise limit

        monkeypatch.setattr(cli, "_cmd_proot_classify", hit_limit)
        assert cli.main(["proot-classify", "--root-lattice", "D4", "--p", "3"]) == 3

    def test_internal_error_propagates(self, monkeypatch):
        def bug(args):
            raise RuntimeError("internal bug")

        monkeypatch.setattr(cli, "_cmd_proot_classify", bug)
        with pytest.raises(RuntimeError, match="internal bug"):
            cli.main(["proot-classify", "--root-lattice", "D4", "--p", "3"])

    def test_order_cap_is_a_limit(self):
        from k3lat.rootsys import build, named_elements

        with pytest.raises(LimitExceeded):
            named_elements(build("D4"))["gx"].order(cap=2)


def run_subprocess(*argv):
    """The CLI in a fresh interpreter; a hang fails the test after 30 s.

    The child's address space is capped at 2 GiB, so a runaway allocation
    fails that child with MemoryError instead of exhausting the machine.
    """
    return subprocess.run([sys.executable, "-m", "k3lat.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=cap_child_memory)


HUGE = str(10 ** 400 + 1)
# 3^+1 at rank 2 is carried by an even negative-definite lattice (-A2), so
# the hostile primes below are what ends or decides each query
EMBEDS_3 = ["embeds", "--qs", "3^+1", "--rank", "2", "--sigma", "1"]


@st.composite
def embeds_argv(draw):
    """argv of one embeds query: a symbol of rank <= 22 from components at
    2, 3, 5 and 7 (any sign, any 2-adic oddity, so some are invalid), p a
    prime that divides |A_S|, sigma <= 10 and rank 0-21.  Half of the ranks
    are drawn where a lattice may carry q_S (ell(A_S) <= rank <= 24 - ell
    and -rank = tau(q_S) mod 8), since elsewhere the query is refused."""
    keys = draw(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3)),
                         min_size=1, max_size=5, unique=True))
    factors, spare = [], 22 - len(keys)  # ranks above the 1 each component has
    for prime, scale in sorted(keys):
        rank = 1 + draw(st.integers(0, spare))
        spare -= rank - 1
        oddity = "_" + draw(st.sampled_from(["II", *"01234567"])) if prime == 2 else ""
        factors.append(f"{prime ** scale}{oddity}^{draw(st.sampled_from('+-'))}{rank}")
    ranks = st.integers(0, 21)
    with contextlib.suppress(ValueError):
        q_s = parse_symbol(" ".join(factors))
        carried = [r for r in range(q_s.ell(), min(22, 25 - q_s.ell()))
                   if (r + signature_mod8(q_s)) % 8 == 0]
        ranks = st.sampled_from(carried) | ranks if carried else ranks
    return ["embeds", "--qs", " ".join(factors), "--rank", str(draw(ranks)),
            "--p", str(draw(st.sampled_from(sorted({prime for prime, _ in keys})))),
            "--sigma", str(draw(st.integers(0, 10)))]


class TestHostileInput:
    @pytest.mark.parametrize("argv", [
        EMBEDS_3 + ["--p", HUGE],
        ["proot-classify", "--root-lattice", "D4", "--p", HUGE],
        ["wildbound", "--p", HUGE],
        # (10^9 + 7)(10^9 + 9): Miller-Rabin finds it composite, and no
        # factor below 10^6 shows it; the prime 10^18 + 3 is decided now
        EMBEDS_3 + ["--p", "1000000016000000063"],
        # a prime above the range in which Miller-Rabin is proven
        EMBEDS_3 + ["--p", "3317044064679887385962123"],
    ], ids=["embeds-huge", "proot-classify-huge", "wildbound-huge", "embeds-19-digits",
            "embeds-25-digits"])
    def test_undecidable_prime_is_usage_error(self, argv):
        res = run_subprocess(*argv)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    def test_prime_below_the_miller_rabin_bound_is_decided(self):
        res = run_subprocess(*EMBEDS_3, "--p", "1000000000000000003")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("embeds (p=1000000000000000003, sigma=1)")

    @pytest.mark.parametrize("diag,want", [
        ([2 * 1000000007, 2 * 1000000007], "2_6^+2 1000000007^+2"),
        ([2 * 1000000007 * 1000000009], None),
    ], ids=["square-of-prime", "product-of-two-primes"])
    def test_large_prime_power_determinant(self, tmp_path, diag, want):
        # 4 (10^9 + 7)^2 factors by an exact square root of the cofactor;
        # 2 (10^9 + 7)(10^9 + 9) is no prime power, and stays undecided
        path = tmp_path / "gram.json"
        gram = [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]
        path.write_text(json.dumps({"rank": len(diag), "gram": gram}))
        res = run_subprocess("symbol", str(path))
        assert "Traceback" not in res.stderr
        if want is None:
            assert res.returncode == 2 and "too large to decide" in res.stderr
        else:
            assert res.returncode == 0, res.stderr
            assert res.stdout.strip() == want

    def test_huge_two_adic_rank_is_usage_error(self):
        # the 2-adic unit search counts the leading 1s of an odd component
        # instead of listing 999,999,999 of them
        started = time.perf_counter()
        res = run_subprocess("embeds", "--qs", "2_1^+999999999", "--rank", "1",
                             "--p", "3", "--sigma", "1")
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and "exceeds 24" in res.stderr
        assert time.perf_counter() - started < 10

    @pytest.mark.parametrize("rank,entry,code", [
        (MAX_GRAM_RANK, None, 0), (MAX_GRAM_RANK + 1, None, 3), (MAX_GRAM_RANK + 1, "x", 3),
        (500, None, 3)], ids=["at-cap", "above-cap", "above-cap-unparsed", "A500"])
    def test_gram_rank_cap(self, tmp_path, rank, entry, code):
        # A_rank in a dense basis (seeded); a Gram of more rows is refused
        # before its entries are read, so non-integer entries give exit 3 too
        # (symbol of the A_500 Cartan Gram took about 15 s without the cap)
        rng = random.Random(rank)
        a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
             for i in range(rank)]
        if rank <= MAX_GRAM_RANK:
            u = [[int(i == j) for j in range(rank)] for i in range(rank)]
            for _ in range(3 * rank):
                i, j = rng.sample(range(rank), 2)
                f = rng.choice((-2, -1, 1, 2))
                u[i] = [x + f * y for x, y in zip(u[i], u[j])]
            a = [list(row) for row in ex.mat_mul(ex.mat_mul(u, a), ex.transpose(u))]
        if entry is not None:
            a = [[entry] * rank for _ in range(rank)]
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": a}))
        for command in ("symbol", "disc"):
            res = run_subprocess(command, str(path))
            assert res.returncode == code, res.stderr
            assert "Traceback" not in res.stderr
            if code == 3:
                assert f"exceeds the cap {MAX_GRAM_RANK}" in res.stderr
        if code == 0:
            assert res.stdout.startswith(f"invariant factors: [{rank + 1}]")

    def test_undecidable_determinant_is_usage_error(self, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(
            {"rank": 1, "gram": [[2 * 1000000000000037 * 1000000000000091]]}))
        res = run_subprocess("symbol", str(path))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("content", [
        {"gram": 5}, [1, 2], {"rank": 1}, {"gram": [[2, 1]]}, {"gram": [2, 2]},
        {"gram": [[2.0]]}, {"gram": [[2, True], [True, 2]]}, {"rank": True, "gram": [[2]]},
        {"rank": 2, "gram": [[2]]},
    ], ids=["gram-int", "list", "no-gram", "not-square", "flat", "float", "bool-entries",
            "bool-rank", "wrong-rank"])
    def test_malformed_gram_file_is_usage_error(self, tmp_path, content):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(content))
        res = run_subprocess("symbol", str(path))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("content", [
        {"generators": 5},
        {"root_lattice": 5, "generators": [[[1, 0], [0, 1]]]},
        {"root_lattice": "D4", "generators": [[[1, 0], [0, 1]]]},
        {"root_lattice": "D4", "generators": [[[1, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 2]]]},
        {"root_lattice": "D4", "generators": [[[True, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 1]]]},
        {"root_lattice": "D4"},
        [],
    ], ids=["generators-int", "label-int", "2x2-for-D4", "not-an-isometry", "bool-entry",
            "no-generators", "list"])
    def test_malformed_generator_file_is_usage_error(self, tmp_path, content):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(content))
        res = run_subprocess("proot-check", "--root-lattice", "D4", "--p", "3",
                             "--generators", str(path))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("p", ["0", "9"])
    def test_proot_check_needs_an_odd_prime(self, tmp_path, p):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"generators": [[[1, 0, 0, 0], [0, 1, 0, 0],
                                                    [0, 0, 1, 0], [0, 0, 0, 1]]]}))
        res = run_subprocess("proot-check", "--root-lattice", "D4", "--p", p,
                             "--generators", str(path))
        assert res.returncode == 2 and "p must be an odd prime" in res.stderr, res.stderr

    @pytest.mark.parametrize("qs,rank,h_order,tried", [
        ("10007^+2", 20, 10007, 2), ("1000003^+2", 20, 1000003, 2),
        ("1000003^+1", 2, 1, 1), ("10007^+3", 18, 10007, 2), ("1000033^-1", 20, 1000033, 2),
        ("1000033^-3", 20, 1000033 ** 2, 1000100003333037028),
    ])
    def test_large_elementary_block_ends(self, qs, rank, h_order, tried):
        """The glued search counts the graphs of each order from the isometry
        types of F_p quadratic spaces and builds one witness graph per order,
        so no query walks A_S[p] or the lines of (Z/p)^2, however large p
        is: each is decided, with the exact number of candidates.  For
        1000003^+1 at rank 2 the trivial subgroup is the witness; the others
        pass over it and embed with |H| = p or p^2.  1000033 is 1 mod 8, so
        its witnesses take square roots by more than one Tonelli-Shanks
        step."""
        p = qs.split("^")[0]
        res = run_subprocess("--json", "embeds", "--qs", qs, "--rank", str(rank),
                             "--p", p, "--sigma", "1")
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        out = json.loads(res.stdout)
        assert out["embeds"] and out["candidates_tried"] == tried
        assert out["certificate"]["h_order"] == h_order

    @pytest.mark.parametrize("qs,rank,sigma", [("3^+6", 8, 3), ("3^+10", 1, 1)])
    def test_query_that_describes_no_lattice_is_usage_error(self, qs, rank, sigma):
        """No even negative-definite lattice of the rank carries q_S, so the
        query is refused before any search (3^+6 at rank 8, sigma 3 once
        answered "does not embed" after 80,793,636,057 candidates)."""
        res = run_subprocess("embeds", "--qs", qs, "--rank", str(rank), "--p", "3",
                             "--sigma", str(sigma))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""
        assert "no even negative-definite lattice" in res.stderr

    def test_p_zero_with_negative_sigma_is_usage_error(self):
        """p is checked before p^min(ell_p, 2 sigma) is formed: 0^-2 once
        escaped main as ZeroDivisionError."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(EMBEDS_3[:-2] + ["--sigma", "-1", "--p", "0"])
        assert code == 2 and "odd prime" in err.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(embeds_argv())
    def test_random_embeds_query_ends_with_an_exit_code(self, argv):
        """Every query, valid or not, ends in main with a verdict (0 or 1), a
        usage error (2) or a scope error (3); no exception escapes."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("bound,code", [
        ("100000000000", 3), (str(cli.MAX_PRIMES_BELOW + 1), 3), ("3", 2), ("-5", 2)])
    def test_table_prime_bound_out_of_range(self, bound, code):
        """Below 4 no odd prime is checked, and a vacuous pass is refused; above
        the cap the trial-division prime list is refused before it starts."""
        start = time.perf_counter()
        res = run_subprocess("table", "--primes-below", bound)
        assert res.returncode == code, res.stderr
        assert time.perf_counter() - start < 5
        assert "Traceback" not in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("command,label", [
        ("proot-classify", "A99"), ("proot-classify", "D99999"), ("proot-check", "D99999")])
    def test_oversized_root_lattice_ends_quickly(self, tmp_path, command, label):
        """A99 is out of the classify scope and is never built; D99999 would
        list 2 * 10^10 roots, and build refuses any rank above 24 first."""
        argv = ["proot-classify"] if command == "proot-classify" else [
            "proot-check", "--generators", str(tmp_path / "gens.json")]
        (tmp_path / "gens.json").write_text(json.dumps({"generators": []}))
        start = time.perf_counter()
        res = run_subprocess(*argv, "--root-lattice", label, "--p", "3")
        assert res.returncode == 3, res.stderr
        assert time.perf_counter() - start < 5
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["proot-classify", "proot-check"])
    @pytest.mark.parametrize("label", ["", " ", "()"], ids=["empty", "blank", "parens"])
    def test_empty_root_lattice_label_is_usage_error(self, tmp_path, command, label):
        argv = ["proot-classify"] if command == "proot-classify" else [
            "proot-check", "--generators", str(tmp_path / "gens.json")]
        (tmp_path / "gens.json").write_text(json.dumps({"generators": []}))
        res = run_subprocess(*argv, "--root-lattice", label, "--p", "3")
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    def test_largest_prime_below_the_cap_is_decided(self):
        res = run_subprocess("wildbound", "--p", "999999999989")
        assert res.returncode == 0 and "tame only" in res.stdout
        assert run_subprocess(*EMBEDS_3, "--p", "999999999989").returncode == 0


class TestWildbound:
    def test_p3(self, capsys):
        code, out = run(capsys, ["wildbound", "--p", "3"])
        assert code == 0
        assert out.splitlines()[0] == "14"
        assert "A2^10" in out

    def test_json(self, capsys):
        code, out = run(capsys, ["--json", "wildbound", "--p", "11"])
        payload = json.loads(out)
        assert payload["bound"] == 1 and payload["witness"] == [["A10", 1]]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-command"])
    assert err.value.code == 2


def test_verify_wiring(monkeypatch, capsys):
    # verify must run the acceptance suite and map its verdict to the exit code
    from k3lat import acceptance

    class Fake:
        number, name, passed, details, elapsed = 1, "fake", True, [], 0.0

        def as_dict(self):
            return {"number": 1, "name": "fake", "passed": True,
                    "details": [], "elapsed": 0.0}

    monkeypatch.setattr(acceptance, "run_all", lambda: [Fake()])
    assert cli.main(["verify"]) == 0
    Fake.passed = False
    monkeypatch.setattr(acceptance, "run_all", lambda: [Fake()])
    assert cli.main(["verify"]) == 1


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


class TestGoldenOutput:
    """Byte-for-byte CLI output recorded in tests/data/golden_cli.json before
    form equality became isomorphism of canonical symbols; reports and
    certificates render the components as constructed, so none may move."""

    def test_table_stdout_and_report(self, capsys, tmp_path):
        want = GOLDEN["table"]
        report = tmp_path / "r.json"
        code, out = run(capsys, want["argv"] + ["--report", str(report)])
        assert (code, out) == (want["exit"], want["stdout"])
        assert report.read_text(encoding="utf-8") == want["report"]

    def test_embeds_every_row_at_p3(self, capsys):
        assert len(GOLDEN["embeds"]) == 67
        for want in GOLDEN["embeds"]:
            code, out = run(capsys, want["argv"])
            assert (code, out) == (want["exit"], want["stdout"]), want["argv"]

    def test_embeds_sigma_2_non_elementary_rows_at_p3(self, capsys):
        # recorded while every candidate of these rows built its own
        # overlattice: the seven rows whose 3-part has scales 3 and 9
        assert len(GOLDEN["embeds-sigma2"]) == 7
        for want in GOLDEN["embeds-sigma2"]:
            code, out = run(capsys, want["argv"])
            assert (code, out) == (want["exit"], want["stdout"]), want["argv"]

    def test_embeds_sigma_2_scale_p3_at_p3(self, capsys):
        # recorded while every candidate of a p-part with a 27 component
        # built its own overlattice
        assert len(GOLDEN["embeds-p3-scale"]) == 2
        for want in GOLDEN["embeds-p3-scale"]:
            code, out = run(capsys, want["argv"])
            assert (code, out) == (want["exit"], want["stdout"]), want["argv"]

    def test_embeds_3_8_at_sigma_4(self, capsys):
        # recorded while the glued search listed every H (64 s): 7,170,082
        # candidates, accepted at |H| = 9
        assert len(GOLDEN["embeds-item1"]) == 1
        for want in GOLDEN["embeds-item1"]:
            code, out = run(capsys, want["argv"])
            assert (code, out) == (want["exit"], want["stdout"]), want["argv"]

    def test_proot_classify_generators_and_verdicts(self, capsys):
        # recorded before the subgroup search ran up to conjugacy: the 30
        # benchmark cases plus E6 at p = 3, 7 and E8 at p = 3; D5/11, E6/11
        # and E6/13 recorded before E6 and D5 were classed over W(R) x {+-1};
        # A2 and A4 at p = 3, 5, 7, A5 at 3 and A6 at 3, 5, 7 re-recorded when
        # Aut(A_m) became root permutations: only the generators moved, to an
        # Aut(A_m)-conjugate subgroup, since the least one in byte order moved
        assert len(GOLDEN["proot-classify"]) == 36
        for want in GOLDEN["proot-classify"]:
            code, out = run(capsys, want["argv"])
            assert (code, out) == (want["exit"], want["stdout"]), want["argv"]
