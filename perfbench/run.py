"""k3lat benchmark: time whole workloads through the public API.

    python3 perfbench/run.py --workload table-sigma1 --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ./src.  One
process runs one workload, single-threaded.  A set-up imports k3lat afresh
(so no cache survives from an earlier set-up, as for a user's new process),
loads the packaged data, builds the root data and the seeded inputs.  A run
times the items of one set-up in `rounds` rounds, each in an order drawn
from the seed, and times SETUP_SAMPLES - 1 more set-ups spread between the
rounds.  An item's latency is the median of its calls over the rounds; an
item whose first call takes LONG_ITEM_S or more is called only in the
first round.  `rounds` follows from --seconds and the nominal cost of the
workload, so it is the same on every machine.  Every result of the first
round is checked against its reference; an item that raises or mismatches
counts as failed and the run goes on.  The end-to-end times are reported at
the reference speed of speed.py: scaled by the speed the machine had during
the run, measured by a fixed kernel timed between items and set-ups.  The
times as measured are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 makes one untraced and
one traced set-up and pass, each item called once, prints the per-layer
metrics of the traced pass and writes its spans to perfbench/traces/.  The
last line of output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 7  # set-ups per run; setup_s is their median
LONG_ITEM_S = 1.0  # an item this slow is called once: its length averages out noise
# Nominal cost of each workload on 2 cores with Python 3.11.7, in seconds:
# (its long items, called once; one round of its other items).  A run makes
# (seconds - once) // round rounds, at least one.
NOMINAL_S = {"table-sigma1": (0, 10), "proot-classify": (17, 3.5),
             "lattice-gram": (6, 4)}
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms"}
MODULES = ("fqf", "hmdata", "intlat", "k3class", "prootpair", "rootsys")

# Per workload, the wrapped functions its traced pass must reach; a zero
# there means the wrappers missed a binding, not that the layer was idle.
REACHES = {
    "table-sigma1": ("k3class.primitively_embeds", "fqf.nikulin_exists",
                     "fqf.signature_mod8", "fqf.overlattice_candidates",
                     "fqf.symbol_of", "exact.mat_mul", "exact.row_hnf"),
    "proot-classify": ("prootpair.classify", "prootpair.verdict",
                       "rootsys.IsometryGroup.closure_perms",
                       "rootsys.RootDatum.matrix_of_perm"),
    "lattice-gram": ("intlat.roots", "intlat.short_vectors", "intlat.discriminant_group",
                     "exact.snf_transform", "fqf.symbol_of"),
}
SETUP_REACHES = ("hmdata.load_table", "hmdata.parse_symbol", "rootsys.build")


def fresh_import(tracer=None) -> SimpleNamespace:
    """Import k3lat from scratch, dropping any earlier copy and its caches."""
    for name in [n for n in sys.modules if n == "k3lat" or n.startswith("k3lat.")]:
        del sys.modules[name]
    importlib.import_module("k3lat")
    if tracer is not None:
        tracer.install()
    return SimpleNamespace(**{m: sys.modules[f"k3lat.{m}"] for m in MODULES})


def set_up(workload: str, seed: int, tracer=None):
    """Import, load the packaged data, build root data and the inputs."""
    k3 = fresh_import(tracer)
    setup = SimpleNamespace(
        table=k3.hmdata.load_table(),
        leech=k3.intlat.leech_lattice(),
        root_data={label: k3.rootsys.build(label) for label in workloads.PROOT_LABELS},
        gram_cases=workloads.gram_cases(seed) if workload == "lattice-gram" else (),
    )
    return workloads.WORKLOADS[workload](k3, setup)


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_times = []
        self.pass_times = []
        self.latencies = {}  # item label -> median of its calls in the last pass
        self.attempted = 0
        self.failures = []  # one per failed item
        self.problems = []  # benchmark self-test findings
        self.speed = speed.Speed()
        self.long_scale = {}  # item label -> speed factor around its long call

    def timed_setup(self, tracer=None):
        self.speed.maybe_sample()
        # drop the previous copy of k3lat (a reference cycle) before timing
        gc.collect()
        t0 = perf_counter()
        items = set_up(self.workload, self.seed, tracer)
        self.setup_times.append(perf_counter() - t0)
        return items

    def extra_setup(self) -> None:
        """A timed set-up whose copy of k3lat is then put aside again: the
        items being timed import lazily, and must keep their own copy."""
        kept = {n: m for n, m in sys.modules.items() if n == "k3lat" or n.startswith("k3lat.")}
        self.timed_setup()
        sys.modules.update(kept)

    def one_pass(self, items, rounds: int = 1, setups: int = 0, tracer=None) -> float:
        """Time every item in `rounds` rounds, with `setups` timed set-ups
        spread between them; returns the summed item latency."""
        calls = {item.label: [] for item in items}
        failed = set()
        for r in range(rounds):
            gc.collect()
            order = list(items)
            random.Random(f"{self.seed}:{len(self.pass_times)}:{r}").shuffle(order)
            for item in order:
                times = calls[item.label]
                if item.label in failed or (times and times[0] >= LONG_ITEM_S):
                    continue
                t0 = perf_counter()
                try:
                    result = item.call()
                except Exception as err:  # a failed item must not end the run
                    failed.add(item.label)
                    self.failures.append(f"{item.label}: {type(err).__name__}: {err}")
                    continue
                times.append(perf_counter() - t0)
                if times[0] >= LONG_ITEM_S:
                    self.long_scale[item.label] = self.speed.local_factor()
                self.speed.maybe_sample()
                if r:
                    continue
                try:
                    with tracer.pause() if tracer else nullcontext():
                        problem = item.check(result)
                except Exception as err:
                    problem = f"check raised {type(err).__name__}: {err}"
                if problem is not None:
                    self.failures.append(f"{item.label}: {problem}")
            for _ in range(setups * (r + 1) // rounds - setups * r // rounds):
                self.extra_setup()
        self.attempted += len(items)
        self.latencies = {label: statistics.median(times)
                          for label, times in calls.items() if times}
        spent = sum(self.latencies.values())
        self.pass_times.append(spent)
        if not spent:
            raise SystemExit("every item of a pass failed:\n" + "\n".join(self.failures[:20]))
        return spent


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds_for(workload: str, seconds: float) -> int:
    once, round_s = NOMINAL_S[workload]
    return max(1, int((seconds - once) // round_s))


def measure(run: Run, seconds: float) -> dict:
    rounds = rounds_for(run.workload, seconds)
    run.one_pass(run.timed_setup(), rounds, SETUP_SAMPLES - 1)
    f = run.speed.factor()
    scaled = [t * run.long_scale.get(label, f) for label, t in run.latencies.items()]

    def summary(lat, setup_s):
        value, pct = tail(lat)
        return pct, {"setup_s": setup_s,
                     "items_per_s": len(lat) / sum(lat),
                     "item_p50_ms": 1000.0 * statistics.median(lat),
                     "item_tail_ms": 1000.0 * value}

    setup_s = statistics.median(run.setup_times)
    _, raw = summary(list(run.latencies.values()), setup_s)
    pct, ref = summary(scaled, setup_s * f)
    metrics = {name: (v, UNITS[name]) for name, v in ref.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    long_scale = ", ".join(f"{k} {v:.4f}" for k, v in run.long_scale.items())
    print(f"speed factor {f:.4f} from {len(run.speed.samples)} kernel samples, "
          f"long items {long_scale or 'none'}; as timed: "
          + ", ".join(f"{name} {v:.6g}" for name, v in raw.items()))
    print(f"set-ups {len(run.setup_times)}; items {len(scaled)}, each the median of "
          f"{rounds} rounds ({len(run.long_scale)} long items called once)")
    print(f"item_tail_ms is p{pct:.2f} of {len(scaled)} item latencies")
    return metrics


def measure_traced(run: Run) -> dict:
    plain = run.one_pass(run.timed_setup())
    tr = tracing.Tracer()
    traced = run.one_pass(run.timed_setup(tr), tracer=tr)
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in tr.metrics().items()}
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    for name in REACHES[run.workload] + SETUP_REACHES:
        if not tr.calls[name]:
            run.problems.append(f"traced pass never reached {name}")
    tests = tr.calls["fqf.nikulin_exists"]
    if tests:
        print(f"fqf.nikulin_exists returned true in {tr.counts['fqf.nikulin_exists.true']} "
              f"of {tests} calls")
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    path = out / f"{run.workload}-seed{run.seed}.tsv"
    tr.write(path)
    print(f"{len(tr.starts)} spans written to {path.relative_to(HERE.parent)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "k3lat" / "__init__.py").is_file():
        print(f"k3lat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    metrics = measure_traced(run) if args.trace else measure(run, args.seconds)
    failed = len(run.failures)
    for line in run.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    for line in run.problems:
        print("SELF-TEST", line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / run.attempted:.6g} ratio ({failed} of {run.attempted})")
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
