import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3lat import cli
from k3lat._exact import LimitExceeded
from k3lat.fqf import EnumerationCapExceeded
from k3lat.prootpair import ScopeExceeded
from k3lat.rootsys import GroupCapExceeded


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
        ScopeExceeded("subgroup closure cap hit"),
        GroupCapExceeded(10),
        EnumerationCapExceeded("subgroup enumeration cap exceeded"),
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
    """The CLI in a fresh interpreter; a hang fails the test after 30 s."""
    env = dict(os.environ)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "k3lat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)


HUGE = str(10 ** 400 + 1)
EMBEDS_3 = ["embeds", "--qs", "3^+1", "--rank", "1", "--sigma", "1"]


class TestHostileInput:
    @pytest.mark.parametrize("argv", [
        EMBEDS_3 + ["--p", HUGE],
        ["proot-classify", "--root-lattice", "D4", "--p", HUGE],
        ["wildbound", "--p", HUGE],
        EMBEDS_3 + ["--p", "1000000000000000003"],
    ], ids=["embeds-huge", "proot-classify-huge", "wildbound-huge", "embeds-19-digits"])
    def test_undecidable_prime_is_usage_error(self, argv):
        res = run_subprocess(*argv)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

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

    @pytest.mark.parametrize("p,ell,rank,code", [
        ("10007", 1, 1, 1), ("1000003", 1, 1, 3), ("1000003", 1, 2, 0), ("10007", 3, 3, 3)])
    def test_large_elementary_block_ends(self, p, ell, rank, code):
        """(Z/p)^2 has p + 1 lines: p = 10007 is decided without spanning each
        line element by element.  At p = 1000003 the p-torsion of A_S, which
        the lines are matched against, is past the cap, and so is it for
        10007^+3 with p^3 elements.  The trivial subgroup is tried first all
        the same: for 1000003^+1 at rank 2 it is the witness, so that query
        is decided."""
        res = run_subprocess("embeds", "--qs", f"{p}^+{ell}", "--rank", str(rank),
                             "--p", p, "--sigma", "1")
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr

    def test_largest_prime_below_the_cap_is_decided(self):
        res = run_subprocess("wildbound", "--p", "999999999989")
        assert res.returncode == 0 and "tame only" in res.stdout
        assert run_subprocess(*EMBEDS_3, "--p", "999999999989").returncode == 1


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
