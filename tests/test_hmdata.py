import time

import pytest
from hypothesis import given, strategies as st

from k3lat.fqf import FiniteQuadraticForm, JordanComponent, render_symbol, signature_mod8
from k3lat.hmdata import (
    ConditionSyntaxError,
    SymbolSyntaxError,
    load_table,
    parse_condition,
    parse_symbol,
    report_to_string,
    write_report,
)


class TestParseSymbol:
    def test_even_type(self):
        q = parse_symbol("2_II^+8")
        (c,) = q.components
        assert (c.prime, c.scale, c.rank, c.sign, c.oddity) == (2, 1, 8, 1, None)

    def test_three_components(self):
        q = parse_symbol("4_3^-1 3^-1 7^-1")
        assert [c.prime for c in q.components] == [2, 3, 7]
        assert q.components[0].oddity == 3

    def test_empty(self):
        assert parse_symbol("1").is_trivial()

    def test_prime_powers(self):
        q = parse_symbol("9^-1 27^+2")
        assert [(c.prime, c.scale) for c in q.components] == [(3, 2), (3, 3)]

    def test_large_prime_parses_at_once(self):
        start = time.perf_counter()
        (c,) = parse_symbol("10000019^+1").components
        assert (c.prime, c.scale) == (10000019, 1)
        assert time.perf_counter() - start < 0.1

    def test_large_power_of_small_prime(self):
        (c,) = parse_symbol(f"{3 ** 30}^+1").components
        assert (c.prime, c.scale) == (3, 30)

    def test_undecidable_size_is_rejected_quickly(self):
        start = time.perf_counter()
        with pytest.raises(SymbolSyntaxError, match="too large"):
            parse_symbol(f"{10 ** 39 + 3}^+1")  # a 40-digit prime
        assert time.perf_counter() - start < 1

    def test_errors_carry_position(self):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("6^+1")
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("3_1^+1")
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("4^+1")  # missing oddity
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("2_9^+1")

    @given(st.lists(st.tuples(st.sampled_from([3, 5, 7, 11]),
                              st.integers(1, 3),
                              st.integers(1, 4),
                              st.sampled_from([1, -1])),
                    min_size=0, max_size=4))
    def test_round_trip_odd_symbols(self, comps):
        seen = set()
        parts = []
        for p, k, r, s in comps:
            if (p, k) in seen:
                continue
            seen.add((p, k))
            parts.append(JordanComponent(p, k, r, s))
        q = FiniteQuadraticForm(tuple(parts))
        assert parse_symbol(render_symbol(q)).components == q.components

    @given(st.integers(1, 3), st.integers(1, 6), st.sampled_from([1, -1]),
           st.integers(0, 7), st.booleans())
    def test_round_trip_two_adic_components(self, k, r, sign, t, even):
        if even:
            if r % 2:
                r += 1
            comp = JordanComponent(2, k, r, sign, None)
        else:
            try:
                comp = JordanComponent(2, k, r, sign, t)
            except ValueError:
                return  # not a realizable (rank, sign, oddity) triple
        q = FiniteQuadraticForm((comp,))
        assert parse_symbol(render_symbol(q)).components == q.components


class TestParseCondition:
    def test_any(self):
        assert parse_condition("any").evaluate(97)

    def test_single_prime(self):
        c = parse_condition("11")
        assert not c.evaluate(7) and c.evaluate(11)

    def test_compound(self):
        c = parse_condition("3,7 or (21/p)=-1")
        assert c.evaluate(3) and c.evaluate(7)
        assert not c.evaluate(5)  # 21 = 1 mod 5 is a square
        assert c.evaluate(11)  # (21/11) = (10/11) = -1
        # direct residue oracle
        for p in (5, 11, 13, 17):
            squares = {x * x % p for x in range(1, p)}
            assert c.evaluate(p) == ((21 % p) not in squares)

    @pytest.mark.parametrize("p", [2, 9])
    def test_evaluate_needs_an_odd_prime(self, p):
        # a Legendre symbol needs an odd prime; 9 is odd and composite
        with pytest.raises(ValueError, match="odd prime"):
            parse_condition("(21/p)=-1").evaluate(p)

    def test_legendre_only(self):
        c = parse_condition("(6/p)=-1")
        assert not c.evaluate(3)  # (6/3) = 0, not -1
        assert c.evaluate(7) == (6 % 7 not in {x * x % 7 for x in range(1, 7)})

    def test_errors(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("sometimes")
        with pytest.raises(ConditionSyntaxError):
            parse_condition("3 or")


class TestTable:
    def test_count_and_numbers(self):
        recs = load_table()
        assert len(recs) == 67
        numbers = [r.number for r in recs]
        assert numbers[0] == 1 and numbers[-1] == 183
        assert 5 not in numbers  # the index set is non-contiguous

    def test_row_52(self):
        rec = next(r for r in load_table() if r.number == 52)
        assert (rec.rank, rec.group_label, rec.order) == (18, "F_21", 21)
        assert render_symbol(rec.q_s) == "7^+3"
        assert rec.condition.any_prime

    def test_row_101(self):
        rec = next(r for r in load_table() if r.number == 101)
        assert (rec.rank, rec.order) == (20, 29160)
        assert render_symbol(rec.q_s) == "3^+2 9^+1"
        assert rec.condition.primes == (3,)

    def test_round_trip_all_symbols(self):
        for rec in load_table():
            assert parse_symbol(render_symbol(rec.q_s)).components == rec.q_s.components

    def test_rank_ell_feasibility(self):
        for rec in load_table():
            assert rec.rank + rec.q_s.ell() <= 24

    def test_tau_matches_negative_definite_rank(self):
        for rec in load_table():
            assert signature_mod8(rec.q_s) == (-rec.rank) % 8

    def test_order_valuations_match_wild_lookups(self):
        recs = load_table()
        def nu(p, n):
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            return v
        row52 = next(r for r in recs if r.number == 52)
        assert nu(7, row52.order) == 1
        assert all(nu(7, r.order) == 0 for r in recs if r.rank <= 16)
        row101 = next(r for r in recs if r.number == 101)
        assert nu(3, row101.order) == 6
        assert all(nu(11, r.order) == 0 for r in recs if r.rank <= 14)

    def test_errata_variants(self):
        """The superseded 2-adic symbols kept in the data-file comments split
        into two kinds: three describe the same discriminant form as the
        corrected ones (lattice-level bookkeeping only), four are not valid
        component data at all (impossible sign/oddity pairs) and are rejected
        by the parser."""
        from k3lat.fqf import isomorphic

        cosmetic = {
            31: "2_3^+3 8_II^-2",
            46: "2_2^+2 3^+2 9^-1",
            53: "2_2^+2 5^+3",
        }
        invalid = {
            55: "2_5^+1 4_1^+1 8_II^+2",
            70: "4_3^+1 8_2^+2",
            84: "2_2^+3 3^-1 9^-1",
            119: "2_5^+1 4_1^+1 3^-1 5^+1",
        }
        recs = {r.number: r for r in load_table()}
        for no, old in cosmetic.items():
            assert isomorphic(parse_symbol(old), recs[no].q_s)
        for no, old in invalid.items():
            with pytest.raises(SymbolSyntaxError):
                parse_symbol(old)

    def test_duplicate_numbers_rejected(self, tmp_path):
        p = tmp_path / "dup.psv"
        p.write_text("1|0|1|1|1|any\n1|0|1|1|1|any\n")
        with pytest.raises(ValueError):
            load_table(p)

    def test_row_diagnostics_are_itemized(self, tmp_path):
        p = tmp_path / "bad.psv"
        p.write_text("1|0|1|1|1|any\n2|8|2|2|2_XX^+8|any\n3|12|x|4|6^+1|any\n")
        with pytest.raises(ValueError) as err:
            load_table(p)
        assert "line 2" in str(err.value) and "line 3" in str(err.value)


class TestReport:
    def test_round_trip_bytes(self, tmp_path):
        report = {"rows": [{"no": 170, "pass": True}], "summary": {"x": 1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        import json

        parsed = json.loads(p1.read_text())
        assert report_to_string(parsed).encode() == p1.read_bytes()

    def test_empty_report_skeleton(self, tmp_path):
        p = tmp_path / "e.json"
        write_report({}, p)
        assert p.read_text() == "{}\n"
