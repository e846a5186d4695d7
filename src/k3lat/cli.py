"""Command-line front end.

Exit codes: 0 success, 1 well-formed negative verdict, 2 usage error,
3 internal limit (scope exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _exact as ex
from . import hmdata, k3class
from .fqf import render_symbol, signature_mod8, symbol_of
from .intlat import discriminant_group, int_matrix, load_gram_json
from .prootpair import ClassifyResult, classify, verdict
from .rootsys import _check_isometry, build, parse_label

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_SCOPE = 3

MAX_PRIMES_BELOW = 10 ** 4  # table --primes-below; 10^4 takes about 1.6 s on 2 vCPUs


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_symbol(args) -> int:
    lat = load_gram_json(args.gram)
    q = symbol_of(lat)
    _emit(args, {"symbol": render_symbol(q), "tau": signature_mod8(q)},
          [render_symbol(q)])
    return EXIT_OK


def _cmd_disc(args) -> int:
    lat = load_gram_json(args.gram)
    disc = discriminant_group(lat)
    lifts = [[str(x) for x in v] for v in disc.generator_lifts]
    payload = {"cyclic_orders": list(disc.cyclic_orders), "generator_lifts": lifts,
               "order": disc.order}
    text = [f"invariant factors: {list(disc.cyclic_orders)}"]
    for d, v in zip(disc.cyclic_orders, lifts):
        text.append(f"  order {d}: ({', '.join(v)})")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_embeds(args) -> int:
    q_s = hmdata.parse_symbol(args.qs)
    decision = k3class.primitively_embeds(q_s, args.rank, args.p, args.sigma)
    payload = decision.as_dict()
    lines = [f"{'embeds' if decision.embeds else 'does not embed'} "
             f"(p={args.p}, sigma={args.sigma})"]
    if decision.certificate:
        c = decision.certificate
        lines.append(f"certificate: |H| = {c.h_order}, "
                     f"saturation {render_symbol(c.q_saturation)}, "
                     f"complement {render_symbol(c.q_complement)}")
    else:
        lines.append(f"exhausted {decision.candidates_tried} candidate saturations")
    _emit(args, payload, lines)
    return EXIT_OK if decision.embeds else EXIT_NEGATIVE


def _cmd_table(args) -> int:
    if args.primes_below < 4:
        raise ValueError("--primes-below must be at least 4, so that p = 3 is checked")
    if args.primes_below > MAX_PRIMES_BELOW:
        raise ex.LimitExceeded(f"--primes-below is capped at {MAX_PRIMES_BELOW}")
    records = hmdata.load_table(args.data)
    primes = k3class.odd_primes_below(args.primes_below)
    report = k3class.reproduce_table(records, primes)
    if args.report:
        hmdata.write_report(report, args.report)
    s = report["summary"]
    lines = [f"{s['rows_passed']}/{s['rows_total']} rows match "
             f"over {s['primes_checked']} odd primes"]
    for row in report["rows"]:
        if not row["pass"]:
            lines.append(f"  mismatch: row {row['no']} expected {row['expected']!r} "
                         f"computed {row['computed']!r}")
    _emit(args, report, lines)
    return EXIT_OK if s["rows_passed"] == s["rows_total"] else EXIT_NEGATIVE


def _load_generators(path, datum):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or not isinstance(obj.get("generators"), list):
        raise ValueError('a generator file must be an object with a "generators" list')
    label = obj.get("root_lattice", datum.label)
    if not isinstance(label, str) or parse_label(label) != parse_label(datum.label):
        raise ValueError("generator file targets a different root lattice")
    return [_check_isometry(datum, int_matrix(m, "generator")) for m in obj["generators"]]


def _cmd_proot_check(args) -> int:
    datum = build(args.root_lattice)
    gens = _load_generators(args.generators, datum)
    v = verdict(datum, gens, args.p)
    _emit(args, v.as_dict(), [
        f"pseudo: {v.is_pseudo}",
        f"full: {v.is_full}",
        f"sharp index: {v.sharp_index}",
        f"fixed rank: {v.fixed_rank}",
        f"witness root: {list(v.witness_root) if v.witness_root else None}",
    ])
    return EXIT_OK if v.is_pseudo else EXIT_NEGATIVE


def _classify_payload(res: ClassifyResult) -> dict:
    return {
        "root_lattice": res.datum_label,
        "p": res.p,
        "partial": res.partial,
        "note": res.note,
        "classes": [
            {
                "order": e.order,
                "generators": [[list(row) for row in g.matrix] for g in e.generators],
                "verdict": e.verdict.as_dict(),
            }
            for e in res.entries
        ],
    }


def _cmd_proot_classify(args) -> int:
    res = classify(args.root_lattice, args.p)
    lines = [f"{res.datum_label} at p={res.p}: {len(res.entries)} pseudo classes, "
             f"{len(res.full_pairs())} full ({res.note})"]
    for e in res.entries:
        lines.append(f"  order {e.order}: pseudo={e.verdict.is_pseudo} "
                     f"full={e.verdict.is_full} fixed_rank={e.verdict.fixed_rank}")
    _emit(args, _classify_payload(res), lines)
    if res.partial and not res.entries:
        return EXIT_SCOPE
    return EXIT_OK


def _cmd_wildbound(args) -> int:
    records = hmdata.load_table(args.data)
    rep = k3class.wild_degree_bound(args.p, records)
    payload = {
        "p": rep.p,
        "bound": rep.bound,
        "witness": [list(w) for w in rep.witness_decomposition],
        "g_r": rep.g_r_contribution,
        "g_l": rep.g_l_contribution,
        "g_l_row": rep.g_l_row,
        "tame_only": rep.tame_only,
        "note": rep.note,
    }
    if rep.tame_only:
        lines = [f"p={rep.p}: tame only ({rep.note})"]
    else:
        wit = " + ".join(f"{lbl}^{n}" if n > 1 else lbl
                         for lbl, n in rep.witness_decomposition)
        lines = [f"{rep.bound}",
                 f"breakdown: root side {rep.g_r_contribution} via {wit}, "
                 f"kernel side {rep.g_l_contribution}"
                 + (f" (row {rep.g_l_row})" if rep.g_l_row else "")]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all()
    payload = {"criteria": [r.as_dict() for r in results],
               "passed": all(r.passed for r in results)}
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}: criterion {r.number} - {r.name} ({r.elapsed:.1f}s)")
        if not r.passed:
            for d in r.details:
                lines.append(f"      {d}")
    _emit(args, payload, lines)
    return EXIT_OK if payload["passed"] else EXIT_NEGATIVE


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="k3lat")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("symbol", help="symbol of a Gram matrix file")
    s.add_argument("gram")
    s.set_defaults(func=_cmd_symbol)

    s = sub.add_parser("disc", help="discriminant group of a Gram matrix file")
    s.add_argument("gram")
    s.set_defaults(func=_cmd_disc)

    s = sub.add_parser("embeds", help="primitive-embedding decision")
    s.add_argument("--qs", required=True)
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--sigma", type=int, required=True)
    s.set_defaults(func=_cmd_embeds)

    s = sub.add_parser("table", help="reproduce the embedding table")
    s.add_argument("--data", default=None)
    s.add_argument("--primes-below", type=int, default=200)
    s.add_argument("--report", default=None)
    s.set_defaults(func=_cmd_table)

    s = sub.add_parser("proot-check", help="pseudo p-root pair verdict")
    s.add_argument("--root-lattice", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--generators", required=True)
    s.set_defaults(func=_cmd_proot_check)

    s = sub.add_parser("proot-classify", help="classify pseudo p-root pairs")
    s.add_argument("--root-lattice", required=True)
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(func=_cmd_proot_classify)

    s = sub.add_parser("wildbound", help="wild-degree upper bound search")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--data", default=None)
    s.set_defaults(func=_cmd_wildbound)

    s = sub.add_parser("verify", help="run the full acceptance suite")
    s.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ex.LimitExceeded as err:
        print(f"scope exceeded: {err}", file=sys.stderr)
        return EXIT_SCOPE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
