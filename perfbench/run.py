#!/usr/bin/env python3
"""Benchmark for gracetree: one workload per process.

    python3 perfbench/run.py --workload sweep_search --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The package is imported from
``src/`` next to this directory and driven through its public functions,
serially.  The timed phase runs a fixed number of whole passes over the
workload's items: as many as fill ``--seconds`` at the workload's
nominal pass time, so that the number of calls, and of failed calls,
is the same in every run.  Every item is timed from outside around its
call, and its output is checked by the benchmark's own code between
calls, off the clock.  Times are scaled to the host's usual speed by a
reference job run between calls (speed.py).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.  The last line of
standard output is one JSON object; a full record of the run goes to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from checks import zero_impossible, zero_impossible_by_search
from spans import Tracer, write_spans
from speed import SpeedProbe
from workloads import WORKLOADS, Checked

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PACKAGE_MODULES = ("model", "labelling", "construct", "search", "sweep")
SETUP_REPS = 9
BRUTE_FORCE_MAX_N = 9
MIN_PASSES = 3

# Seconds one pass takes, its checks and speed probe included, on a
# shared 2-vCPU x86-64 VM running CPython 3.11 at its usual speed (see
# speed.py).  Used only to turn --seconds into a fixed pass count.
NOMINAL_PASS_S = {
    "sweep_search": 3.4,
    "sweep_construct": 5.8,
    "label_large": 7.1,
    "rotate0_general": 4.3,
}

# Per-layer self times, reported as <name>.self_s.
LAYER_SELF_TIMES = (
    "search.find_graceful",
    "search.is_zero_rotatable",
    "model.vertex_orbits",
    "model.to_general",
    "model.decompose",
    "model.classify",
    "model.automorphism_mapping",
    "model.build",
    "construct.zero_at",
    "construct.theorem1_label",
    "construct.compose_theorem2",
    "labelling.is_graceful",
    "labelling.relabel_vertices",
    "labelling.complement",
    "sweep.evaluate_sequence",
    "bench.item",
)
LAYER_CALLS = (
    "search.find_graceful",
    "model.vertex_orbits",
    "model.automorphism_mapping",
    "construct.zero_at",
)


def load_package() -> SimpleNamespace:
    """Import gracetree from this source tree, and from nowhere else."""
    if not (SRC / "gracetree" / "__init__.py").is_file():
        sys.exit(f"run.py: no gracetree package under {SRC}; run from a full source tree")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"gracetree.{m}") for m in PACKAGE_MODULES}
    for m in mods.values():
        if SRC not in Path(m.__file__).resolve().parents:
            sys.exit(f"run.py: imported {m.__name__} from {m.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def fresh_import_seconds() -> float:
    """Time to import the package in a new interpreter, as a user pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        + "; ".join(f"import gracetree.{m}" for m in PACKAGE_MODULES)
        + "; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def source_digest() -> str:
    """Hash of the package and of this benchmark: the code the counts depend on."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gracetree").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def git_sha() -> str | None:
    """HEAD of the source tree, when it is a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)  # per item, seconds
    asked: int = 0
    decided: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    nos: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def slowdown(self) -> float:
        return self.probe.slowdown()

    def normalised_times(self) -> list[float]:
        """Item times at the host's usual speed (see speed.py)."""
        return [t / s for t, s in zip(self.times, self.probe.item_slowdowns())]

    def signature(self) -> dict:
        """The machine-independent outcome of the pass."""
        sig = dict(sorted(self.counts.items()))
        sig.update(asked=self.asked, decided=self.decided, failed=self.failed)
        return sig


def run_pass(pkg, workload, items, tracer: Tracer | None) -> PassResult:
    res = PassResult(tracer=tracer)
    perf = time.perf_counter
    for index, item in enumerate(items):
        t0 = perf()
        try:
            if tracer is None:
                output = workload.call(pkg, item)
            else:
                output = tracer.run_item(index, workload.call, pkg, item)
        except Exception as exc:  # a failed operation; record it and go on
            res.times.append(perf() - t0)
            res.probe.after_item(res.times[-1])
            res.asked += 1
            res.failed += 1
            res.counts[f"raised.{type(exc).__name__}"] += 1
            res.errors.append(
                {
                    "item": workload.key(item),
                    "error": f"{type(exc).__name__}: {str(exc)[:200]}",
                    "where": traceback.format_exc(limit=-3).splitlines()[-3:],
                }
            )
            continue
        res.times.append(perf() - t0)
        res.probe.after_item(res.times[-1])
        checked: Checked = workload.check(item, output)
        del output
        res.asked += checked.asked
        res.decided += checked.decided
        res.counts.update(checked.counts)
        if checked.wrong:
            res.failed += 1
            res.wrong.extend(checked.wrong)
        for tree, vertex, n, edges in checked.nos:
            res.nos[(tree, vertex)] = (n, edges)
    return res


def rederive_nos(passes: list[PassResult]) -> tuple[list[str], int, list[str]]:
    """Re-derive every "no": by enumerating permutations up to
    BRUTE_FORCE_MAX_N vertices, and above that by the benchmark's own
    exhaustive search.  Returns the wrong ones, the number checked, and
    the ones the search gave up on."""
    wrong, checked, open_ = [], 0, []
    seen: dict = {}
    for p in passes:
        seen.update(p.nos)
    for (tree, vertex), (n, edges) in sorted(seen.items()):
        if n <= BRUTE_FORCE_MAX_N:
            impossible = zero_impossible(n, edges, vertex)
        else:
            impossible = zero_impossible_by_search(n, edges, vertex)
        if impossible is None:
            open_.append(f"{tree}: no at vertex {vertex}, not re-derived")
            continue
        checked += 1
        if not impossible:
            wrong.append(f"{tree}: no at vertex {vertex}, but the benchmark finds a labelling")
    return wrong, checked, open_


def check_determinism(workload, seed: int, source: str, passes: list[PassResult]) -> list[str]:
    """Counts must repeat across the passes of this run, and across runs
    of the same source: per seed, or for any seed on the sweeps."""
    problems = []
    first = passes[0].signature()
    for i, p in enumerate(passes[1:], 1):
        if p.signature() != first:
            problems.append(f"pass {i} counts differ from pass 0: {p.signature()} vs {first}")
    key = "any-seed" if workload.seed_independent else f"seed{seed}"
    record = RESULTS / "counts" / f"{workload.name}-{key}.json"
    try:
        earlier = json.loads(record.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier is not None and earlier.get("source_sha256") == source:
        if earlier["counts"] != first:
            problems.append(f"counts differ from an earlier run ({record.name}): {first} vs {earlier['counts']}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"source_sha256": source, "seed": seed, "counts": first}, indent=1))
    return problems


def decile_9(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def normalised_wall(passes: list[PassResult]) -> float:
    """Median over the passes of the pass time at the host's usual speed."""
    return statistics.median(sum(p.normalised_times()) for p in passes)


def per_item_medians(passes: list[PassResult]) -> list[float]:
    return [statistics.median(ts) for ts in zip(*(p.normalised_times() for p in passes))]


def end_to_end(passes, setup_s: float, n_items: int, attempted: int, failed: int) -> dict:
    wall = normalised_wall(passes)
    items = per_item_medians(passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (n_items / wall, "1/s"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
        "item_p90_ms": (decile_9(items) * 1e3, "ms"),
        "decided_frac": (passes[0].decided / passes[0].asked, "frac"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: list[PassResult], untraced: list[PassResult]) -> dict:
    tracers = [p.tracer for p in traced]
    first = tracers[0]
    wall = normalised_wall(traced)
    plain = normalised_wall(untraced)
    ev = first.events
    out = {}
    for name in LAYER_SELF_TIMES:
        out[f"{name}.self_s"] = (statistics.median(p.tracer.self_s[name] / p.slowdown for p in traced), "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (first.calls[name], "count")
    search_s = statistics.median(
        sum(t1 - t0 for _, _, _, name, t0, t1, _ in p.tracer.spans if name == "search.find_graceful")
        / p.slowdown
        for p in traced
    )
    out["search.nodes"] = (ev["search.nodes"], "count")
    out["search.nodes_per_s"] = (ev["search.nodes"] / search_s if search_s else 0.0, "1/s")
    for status in ("found", "exhausted", "timeout"):
        out[f"search.{status}"] = (ev[f"search.{status}"], "count")
    out["search.timeout_nodes"] = (ev["search.timeout_nodes"], "count")
    zero_at_calls = first.calls["construct.zero_at"]
    constructed = ev["construct.constructed"]
    out["construct.zero_at.unsupported"] = (ev["construct.zero_at.unsupported"], "count")
    out["construct.unsupported_s"] = (
        statistics.median(p.tracer.events["construct.unsupported_s"] / p.slowdown for p in traced), "s")
    out["construct.hit_ratio"] = (constructed / zero_at_calls if zero_at_calls else 0.0, "frac")
    searched = ev["search.find_graceful@sweep"]
    sweep_constructed = ev["construct.constructed@sweep"]
    out["sweep.orbits.constructed"] = (sweep_constructed, "count")
    out["sweep.orbits.searched"] = (searched, "count")
    out["sweep.orbits.complement"] = (ev["sweep.orbits"] - sweep_constructed - searched, "count")
    out["search.find_graceful.share"] = (out["search.find_graceful.self_s"][0] / wall, "frac")
    out["model.vertex_orbits.share"] = (out["model.vertex_orbits.self_s"][0] / wall, "frac")
    out["trace.spans"] = (len(first.spans), "count")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - plain, "s")
    out["trace.overhead_frac"] = ((wall - plain) / plain, "frac")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pkg = load_package()
    env = environment()
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        items = workload.make_inputs(pkg, args.seed)
        setup_times.append(import_s + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    n_passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[workload.name]))
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    for i in range(n_passes):
        if args.trace and i % 2:
            tracer = Tracer()
            undo = tracer.install(pkg)
            try:
                traced.append(run_pass(pkg, workload, items, tracer))
            finally:
                Tracer.uninstall(undo)
        else:
            untraced.append(run_pass(pkg, workload, items, None))
    measured_s = time.perf_counter() - start

    passes = untraced + traced
    wrong = [w for p in passes for w in p.wrong]
    extra_wrong, rederived, not_rederived = rederive_nos(passes)
    wrong += extra_wrong
    nondeterminism = check_determinism(workload, args.seed, env["source_sha256"], passes)
    correct = not wrong and not nondeterminism

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes) + len(extra_wrong)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_s, len(items), attempted, failed)
    metric_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "items_per_pass": len(items),
        "passes": {
            kind: [{"wall_s": p.wall, "slowdown": p.slowdown} for p in ps]
            for kind, ps in (("untraced", untraced), ("traced", traced))
        },
        "measured_s": measured_s,
        "setup_reps_s": setup_times,
        "counts": passes[0].signature(),
        "failed_frac": failed / attempted,
        "nos_rederived": rederived,
        "nos_not_rederived": not_rederived,
        "errors": passes[0].errors,
        "wrong": wrong[:50],
        "nondeterminism": nondeterminism,
        "metrics": metric_doc,
    }
    if args.trace:
        spans_path = RESULTS / f"{stem}-spans.jsonl.gz"
        write_spans(spans_path, [p.tracer for p in traced])
        record["spans_file"] = spans_path.name
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for line in wrong[:20] + nondeterminism:
        print(f"run.py: {line}", file=sys.stderr)
    print(
        f"# {workload.name} seed {args.seed}: {len(items)} items per pass, "
        f"{len(untraced)} untraced + {len(traced)} traced passes in {measured_s:.1f} s; "
        f"p50/p90 over {len(items)} per-item medians; failed {failed}/{attempted}; "
        f"env {json.dumps(env)}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metric_doc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
