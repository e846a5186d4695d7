"""Parsers and data ingestion: symbol strings, prime conditions, table records.

The table data file is pipe-separated, one record per line:
    number|rank|label|order|symbol|condition
Lines starting with '#' are comments (used to keep superseded symbol variants
next to the corrected rows).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from . import _exact as ex
from .fqf import (
    TWO_EVEN,
    FiniteQuadraticForm,
    JordanComponent,
    render_symbol,
)


class SymbolSyntaxError(ValueError):
    def __init__(self, text, pos, message):
        super().__init__(f"symbol {text!r}, position {pos}: {message}")
        self.pos = pos


_TOKEN = re.compile(r"(\d+)(?:_(II|\d))?\^([+-])(\d+)")


def parse_symbol(text: str) -> FiniteQuadraticForm:
    """Parse a Conway-Sloane style symbol string ("1" is the empty form)."""
    s = text.strip()
    if s == "1":
        return FiniteQuadraticForm()
    comps = []
    pos = 0
    for token in s.split():
        pos = text.find(token, pos)
        m = _TOKEN.fullmatch(token)
        if not m:
            raise SymbolSyntaxError(text, pos, f"bad factor {token!r}")
        sign = 1 if m.group(3) == "+" else -1
        rank = int(m.group(4))
        odd = m.group(2)
        try:
            factors = ex.factor(int(m.group(1)))
            if len(factors) != 1:
                raise SymbolSyntaxError(text, pos, f"{m.group(1)} is not a prime power")
            ((p, k),) = factors.items()
            if p == 2:
                if odd is None:
                    raise SymbolSyntaxError(text, pos, "2-adic factor needs an oddity")
                if odd != "II" and int(odd) > 7:
                    raise SymbolSyntaxError(text, pos, "oddity must be 0..7 or II")
                t = TWO_EVEN if odd == "II" else int(odd)
                comps.append(JordanComponent(2, k, rank, sign, t))
            else:
                if odd is not None:
                    raise SymbolSyntaxError(text, pos, "oddity on an odd prime factor")
                comps.append(JordanComponent(p, k, rank, sign))
        except ValueError as err:
            if isinstance(err, SymbolSyntaxError):
                raise
            raise SymbolSyntaxError(text, pos, str(err)) from None
        pos += len(token)
    try:
        return FiniteQuadraticForm(tuple(comps))
    except ValueError as err:
        raise SymbolSyntaxError(text, 0, str(err)) from None


@dataclass(frozen=True)
class PrimeCondition:
    """Disjunction of explicit primes and Legendre clauses, or the constant "any"."""

    any_prime: bool
    primes: tuple
    legendre_clauses: tuple  # (n, -1) pairs meaning (n/p) == -1
    text: str

    def evaluate(self, p: int) -> bool:
        ex.require_odd_prime(p)
        if self.any_prime:
            return True
        if p in self.primes:
            return True
        for n, val in self.legendre_clauses:
            if ex.legendre(n, p) == val:
                return True
        return False


class ConditionSyntaxError(ValueError):
    pass


_LEGENDRE = re.compile(r"\(\s*(\d+)\s*/\s*p\s*\)\s*=\s*(-1)")


def parse_condition(text: str) -> PrimeCondition:
    """Parse the prime-condition column grammar."""
    s = text.strip()
    if s == "any":
        return PrimeCondition(True, (), (), s)
    primes = []
    clauses = []
    for part in re.split(r"\bor\b", s):
        part = part.strip()
        if not part:
            raise ConditionSyntaxError(f"empty clause in {text!r}")
        m = _LEGENDRE.fullmatch(part)
        if m:
            clauses.append((int(m.group(1)), int(m.group(2))))
            continue
        if re.fullmatch(r"\d+(\s*,\s*\d+)*", part):
            for tok in part.split(","):
                primes.append(int(tok.strip()))
            continue
        raise ConditionSyntaxError(
            f"clause {part!r} at offset {text.find(part)} is neither a prime list "
            f"nor a Legendre clause"
        )
    return PrimeCondition(False, tuple(primes), tuple(clauses), s)


@dataclass(frozen=True)
class HMRecord:
    number: int
    rank: int
    group_label: str
    order: int
    q_s: FiniteQuadraticForm
    condition: PrimeCondition

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if not 0 <= self.rank <= 21:
            raise ValueError("rank out of range")
        if self.q_s.ell() > self.rank:
            raise ValueError(
                f"record {self.number}: ell(A) = {self.q_s.ell()} exceeds rank {self.rank}"
            )


def parse_record(line: str) -> HMRecord:
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 6:
        raise ValueError(f"expected 6 fields, got {len(fields)}: {line!r}")
    number, rank, label, order = int(fields[0]), int(fields[1]), fields[2], int(fields[3])
    return HMRecord(number, rank, label, order, parse_symbol(fields[4]),
                    parse_condition(fields[5]))


def load_table(path=None) -> list:
    """Load the packaged table (or a file at path); exactly 67 records."""
    if path is None:
        text = resources.files("k3lat.data").joinpath("hm_table.psv").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    records = []
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(parse_record(line))
        except ValueError as err:
            problems.append(f"line {lineno}: {err}")
    if problems:
        raise ValueError("table parse failures:\n" + "\n".join(problems))
    numbers = [r.number for r in records]
    if len(set(numbers)) != len(numbers):
        raise ValueError("duplicate record numbers")
    return records


def write_report(report: dict, path) -> None:
    """Serialize a report with stable field order (byte-identical for equal input)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_string(report))


def report_to_string(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


__all__ = [
    "HMRecord",
    "PrimeCondition",
    "SymbolSyntaxError",
    "ConditionSyntaxError",
    "parse_symbol",
    "render_symbol",
    "parse_condition",
    "parse_record",
    "load_table",
    "write_report",
    "report_to_string",
]
