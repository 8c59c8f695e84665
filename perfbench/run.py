#!/usr/bin/env python3
"""Benchmark of the `noninner` certifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one thread, closed loop:
each operation starts when the previous one ends.  A run repeats whole
rounds (every operation of the workload once, in an order drawn from the
seed); the first round always runs, and another starts while the run is
expected to end nearer to S seconds with it than without it.  Every
operation builds a fresh `PcGroup`, so no cache carries over between
operations.

Workloads (see README.md for why each was chosen):

    certify_eligible   certify_group on the four ELIGIBLE 3^7 corpus groups
    conditions_small   decide_route plus diagnostics over the five corpus
                       groups of order at most 125 (one pass = one operation)
    series_large       upper/lower central series and Frattini subgroup of
                       four 3^8 products G x C3; not in BENCHMARK.json, run
                       by hand to see the structure layer's memory

After the timed rounds the outputs are checked against `checker.py`, which
recomputes them without `noninner`, and against the corpus manifest.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or with --trace 1 the
per-layer metrics of `tracer.py`).  Result and trace files go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
RESULTS = HERE / "results"

SETUP_PROBES = 15
SAMPLE_INTERVAL = 0.1  # seconds between samples of the host's speed

# numpy's BLAS would start a thread pool on import; nothing here uses BLAS,
# and the benchmark runs on one thread.  Set-up probes inherit this.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ELIGIBLE = ["g2187_a", "g2187_b", "g2187_c", "g2187_d"]
SERIES_BASES = ["g2187_zcyc", "g2187_a", "g2187_b", "g2187_zphi"]
SMALL = ["dihedral_8", "heisenberg_3", "heisenberg_5", "wreath_81", "heis_x_c3"]


# ---------------------------------------------------------------------------
# workloads: setup (untimed inputs), run (one timed operation), check


class CertifyEligible:
    labels = ELIGIBLE

    def setup(self) -> None:
        from noninner import pcpfile

        self.docs = {n: pcpfile.parse_pcp_file(CORPUS / f"{n}.pcp") for n in ELIGIBLE}

    def run(self, label, rng) -> dict:
        from noninner import certify

        report = certify.certify_group(self.docs[label].presentation, group_id=label)
        return {"route": report.route, "class": report.nilpotency_class, "images": report.images}

    def check(self, label, out, manifest, checker) -> list:
        entry = manifest[label]
        problems = []
        if out["route"] != entry["route"]:
            problems.append(f"route {out['route']}, manifest says {entry['route']}")
        expected_class = len(entry["fingerprint"]["lower_series_orders"]) - 1
        if out["class"] != expected_class:
            problems.append(f"class {out['class']}, fingerprint gives {expected_class}")
        if out["images"] is None:
            return problems + ["no certificate"]
        group = checker.load(CORPUS / entry["file"])
        return problems + checker.check_automorphism(group, out["images"])


class SeriesLarge:
    """G x C3 for a 3^7 corpus group G: the presentation of G with an
    eighth generator g8 appended that no relation mentions, so g8 is
    central of order 3 and splits off as a direct factor."""

    labels = SERIES_BASES

    def setup(self) -> None:
        from noninner import pcgroup, pcpfile

        self.docs = {}
        for name in SERIES_BASES:
            pres = pcpfile.parse_pcp_file(CORPUS / f"{name}.pcp").presentation
            product = pcgroup.PcPresentation(
                pres.p, pres.ngens + 1, powers=pres.powers, commutators=pres.commutators
            )
            text = pcpfile.serialize_pcp(product, f"{name}_x_c3")
            self.docs[name] = pcpfile.parse_pcp(text)

    def run(self, label, rng) -> dict:
        from noninner import pcgroup, structure

        group = pcgroup.PcGroup(self.docs[label].presentation, validate=False)
        upper = structure.upper_central_series(group)
        lower = structure.lower_central_series(group)
        phi = structure.frattini(group)
        return {
            "upper": [s.order for s in upper],
            "lower": [s.order for s in lower],
            "frattini": phi.order,
        }

    def check(self, label, out, manifest, checker) -> list:
        entry = manifest[label]
        fp, p = entry["fingerprint"], entry["p"]
        expected = {
            "upper": [1] + [p * o for o in fp["upper_series_orders"][1:]],
            "lower": [p * fp["lower_series_orders"][0]] + fp["lower_series_orders"][1:],
            "frattini": int(checker.load(CORPUS / entry["file"]).frattini().sum()),
        }
        return [
            f"{key} {out[key]}, direct-product rule gives {expected[key]}"
            for key in expected
            if out[key] != expected[key]
        ]


class ConditionsSmall:
    labels = ["pass"]

    def setup(self) -> None:
        from noninner import pcpfile

        self.docs = {n: pcpfile.parse_pcp_file(CORPUS / f"{n}.pcp") for n in SMALL}

    def run(self, label, rng) -> dict:
        from noninner import eligibility, pcgroup

        out = {}
        for name in rng.sample(SMALL, len(SMALL)):
            group = pcgroup.PcGroup(self.docs[name].presentation, validate=False)
            route = eligibility.decide_route(group).route.value
            out[name] = {"route": route, "diagnostics": eligibility.diagnostics(group)}
        return dict(sorted(out.items()))

    def check(self, label, out, manifest, checker) -> list:
        problems = []
        for name in SMALL:
            entry = manifest[name]
            got = out[name]
            if got["route"] != entry["route"]:
                problems.append(f"{name}: route {got['route']}, manifest says {entry['route']}")
            expected = checker.diagnostics(checker.load(CORPUS / entry["file"]))
            if got["diagnostics"] != expected:
                problems.append(f"{name}: diagnostics {got['diagnostics']}, checker gives {expected}")
        return problems


WORKLOADS = {
    "certify_eligible": CertifyEligible,
    "series_large": SeriesLarge,
    "conditions_small": ConditionsSmall,
}


# ---------------------------------------------------------------------------
# per-layer metrics: (metric, tracer stat, field, unit); see tracer.py

PER_LAYER = [
    ("pcpfile.parse_pcp_file.s", "pcpfile.parse_pcp_file", "total", "s"),
    ("pcgroup.PcGroup.init_s", "pcgroup.PcGroup", "total", "s"),
    ("pcgroup.mul.calls", "pcgroup.PcGroup.mul", "calls", "count"),
    ("pcgroup.mul.self_s", "pcgroup.PcGroup.mul", "self_time", "s"),
    ("pcgroup.inv.calls", "pcgroup.PcGroup.inv", "calls", "count"),
    ("pcgroup.pow.calls", "pcgroup.PcGroup.pow", "calls", "count"),
    ("pcgroup.conj.calls", "pcgroup.PcGroup.conj", "calls", "count"),
    ("pcgroup.comm.calls", "pcgroup.PcGroup.comm", "calls", "count"),
    ("pcgroup.right_mult_perm.calls", "pcgroup.PcGroup.right_mult_perm", "calls", "count"),
    ("pcgroup.right_mult_perm.s", "pcgroup.PcGroup.right_mult_perm", "total", "s"),
    ("pcgroup.inv_table.s", "pcgroup.PcGroup.inv_table", "total", "s"),
    ("pcgroup.mul_idx.calls", "pcgroup.PcGroup.mul_idx", "calls", "count"),
    ("structure.upper_central_series.s", "structure.upper_central_series", "total", "s"),
    ("structure.lower_central_series.s", "structure.lower_central_series", "total", "s"),
    ("structure.frattini.s", "structure.frattini", "total", "s"),
    ("structure.coset_min_table.calls", "structure.coset_min_table", "calls", "count"),
    ("structure.coset_min_table.s", "structure.coset_min_table", "total", "s"),
    ("structure.closure.calls", "structure.closure", "calls", "count"),
    ("structure.closure.s", "structure.closure", "total", "s"),
    ("structure.centralizer.calls", "structure.centralizer", "calls", "count"),
    ("structure.centralizer.s", "structure.centralizer", "total", "s"),
    ("structure.quotient_exponent_is_p.s", "structure.quotient_exponent_is_p", "total", "s"),
    ("structure.quotient_is_cyclic.s", "structure.quotient_is_cyclic", "total", "s"),
    ("eligibility.decide_route.s", "eligibility.decide_route", "total", "s"),
    ("eligibility.select_n.s", "eligibility.select_n", "total", "s"),
    ("eligibility.select_generators.s", "eligibility.select_generators", "total", "s"),
    ("eligibility.diagnostics.s", "eligibility.diagnostics", "total", "s"),
    ("eligibility.central_automorphisms.s", "eligibility.central_automorphisms", "total", "s"),
    ("cocycles.coset_exponents.calls", "cocycles.coset_exponents", "calls", "count"),
    ("cocycles.verify_cocycle.s", "cocycles.verify_cocycle", "total", "s"),
    ("cocycles.lift_to_automorphism.s", "cocycles.lift_to_automorphism", "total", "s"),
    ("maps.verify_automorphism.calls", "maps.verify_automorphism", "calls", "count"),
    ("maps.verify_automorphism.s", "maps.verify_automorphism", "total", "s"),
    ("maps.map_order.s", "maps.map_order", "total", "s"),
    ("maps.GroupMap.apply_table.s", "maps.GroupMap.apply_table", "total", "s"),
    ("maps.find_conjugating_element.calls", "maps.find_conjugating_element", "calls", "count"),
    ("maps.find_conjugating_element.s", "maps.find_conjugating_element", "total", "s"),
    ("maps.is_central_map.s", "maps.is_central_map", "total", "s"),
    ("certify.certify_group.s", "certify.certify_group", "total", "s"),
]


def layer_metrics(tracer, setup_stats, rounds: int) -> dict:
    """Each figure is the set-up's share plus one round's share, so runs
    with different round counts compare; counts come out whole."""
    final = tracer.stats

    def per_run(stat, field):
        before = getattr(setup_stats[stat], field)
        value = before + (getattr(final[stat], field) - before) / rounds
        return int(value) if field == "calls" and value == int(value) else value

    metrics = {name: {"value": per_run(stat, field), "unit": unit}
               for name, stat, field, unit in PER_LAYER}
    build = sum(per_run(f"cocycles.derivation_from_{x}_exponent", "total") for x in "ba")
    metrics["cocycles.derivation_build.s"] = {"value": build, "unit": "s"}
    accepted = sum(a["accepted"] for a in tracer.attr_values("eligibility.central_automorphisms") if a)
    candidates = tracer.count_children("maps.verify_automorphism", "eligibility.central_automorphisms")
    metrics["eligibility.central_automorphisms.accept_ratio"] = {
        "value": accepted / candidates if candidates else 0.0, "unit": "ratio"}
    # a call that raised left no attrs
    certified = sum(a["certified"] for a in tracer.attr_values("certify.certify_group") if a)
    searches = tracer.count_children("maps.find_conjugating_element", "certify.certify_group")
    metrics["certify.inner_search.useful_ratio"] = {
        "value": certified / searches if searches else 0.0, "unit": "ratio"}
    return metrics


# ---------------------------------------------------------------------------
# running a workload


def alloc_pass(tracer, workload, rng) -> int:
    """Peak tracemalloc bytes of one `coset_min_table` call, the largest,
    over one operation on the workload's first label.  The pass runs after
    the timed rounds and the metrics taken from them, because tracemalloc
    slows every allocation beneath the call."""
    tracer.measure_alloc = True
    try:
        with tracer.span("alloc_pass"):
            workload.run(workload.labels[0], rng)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    tracer.measure_alloc = False
    return tracer.stats["structure.coset_min_table"].alloc_peak


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of the collector's kinds of
    work (small lists and tuples of exponents mod 3, dict lookups), about
    a millisecond: a sample of the host's speed at the time."""
    start = time.perf_counter()
    vec, seen = [0] * 7, {}
    for i in range(400):
        vec = [(a * 2 + i + j) % 3 for j, a in enumerate(vec)]
        key = tuple(vec)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


class HostSpeed:
    """Runs `reference_loop` every SAMPLE_INTERVAL seconds of wall time,
    from a SIGALRM handler, so it samples the host's speed during the
    operations themselves.  On a shared host that speed drifts by a third
    within minutes, and an operation's time over the mean sample is the
    program's own cost.  `spent` is the handler's time, which the caller
    takes out of the operation it interrupted."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter until the workload's
    inputs are ready (imports, parsing, building the presentations)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noninner" / "__init__.py").is_file() or not (CORPUS / "manifest.json").is_file():
        print(f"error: run from a checkout of noninner; {SRC} or {CORPUS} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload]()

    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    import noninner  # noqa: F401  (loads every module the tracer patches)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup()
    setup_stats = tracer.snapshot() if tracer else None

    speed = HostSpeed()
    op_times: list = []
    op_refs: list = []
    op_labels: list = []
    round_times: list = []
    outputs: dict = {}
    attempted = failed = 0
    start = time.perf_counter()
    with speed:
        while True:
            order = rng.sample(workload.labels, len(workload.labels))
            round_start = time.perf_counter()
            for label in order:
                attempted += 1
                spent, first_sample = speed.spent, len(speed.samples)
                t0 = time.perf_counter()
                try:
                    if tracer:
                        with tracer.span(f"op.{label}"):
                            out = workload.run(label, rng)
                    else:
                        out = workload.run(label, rng)
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    out = None
                elapsed = time.perf_counter() - t0
                op_times.append(elapsed - (speed.spent - spent))
                op_refs.append(speed.samples[first_sample:])
                op_labels.append(label)
                if out is not None:
                    outputs.setdefault(label, {}).setdefault(json.dumps(out, sort_keys=True), out)
            round_times.append(time.perf_counter() - round_start)
            # another round ends the run nearer to --seconds than stopping now
            if time.perf_counter() - start + statistics.mean(round_times) / 2 >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(round_times)

    # the checker's work lies outside every timed interval
    import checker

    manifest = json.loads((CORPUS / "manifest.json").read_text())["groups"]
    problems = []
    for label, distinct in sorted(outputs.items()):
        if len(distinct) > 1:
            problems.append(f"{label}: {len(distinct)} different outputs across rounds")
        for out in distinct.values():
            problems += [f"{label}: {msg}" for msg in workload.check(label, out, manifest, checker)]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    # such a label is counted in `failed`; `correct` speaks of the
    # operations that did not fail
    for label in workload.labels:
        if label not in outputs:
            print(f"not checked: every operation on {label} failed", file=sys.stderr)

    wall_s = sum(op_times) / rounds
    # each operation over the mean sample taken during it; an operation
    # shorter than SAMPLE_INTERVAL takes the run's mean sample
    op_in_ref = [t / statistics.mean(refs or speed.samples) for t, refs in zip(op_times, op_refs)]
    wall_ref = sum(op_in_ref) / rounds
    if tracer:
        metrics = layer_metrics(tracer, setup_stats, rounds)
        metrics["structure.coset_min_table.alloc_peak_mb"] = {
            "value": alloc_pass(tracer, workload, rng) / 2**20, "unit": "MB"}
    else:
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "op_ref.p50": {"value": statistics.median(op_in_ref), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  wall_s=wall_s, op_s_p50=statistics.median(op_times),
                  ref_s=statistics.mean(speed.samples), wall_ref=wall_ref,
                  op_times=op_times, op_in_ref=op_in_ref, op_labels=op_labels,
                  round_times=round_times, setup_times=setup_times, problems=problems)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
