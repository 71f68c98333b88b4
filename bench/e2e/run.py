#!/usr/bin/env python3
"""End-to-end benchmark of paper regeneration (standard library only).

Runs one workload of the tpred_e2e driver as a closed loop with a single
client: each request is one whole sample, made of a setup process that
builds the sample's inputs into a fresh corpus directory and a timed
process that consumes them.  Wall time, CPU time and peak RSS come from
os.wait4 on each process.  Every sample's outputs are checked: exit
codes, the driver's in-process proofs, and digests of every rendered
artifact and of the deterministic counter set, against expected.json
where it pins the seed and against the run's first sample otherwise.

  python3 bench/e2e/run.py --workload paper-warm --seed 1 --seconds 30 --trace 0
  python3 bench/e2e/run.py --workload paper-warm --trace 1   # per-layer run
  python3 bench/e2e/run.py                                   # every workload
  python3 bench/e2e/run.py compare parent.jsonl change.jsonl
  python3 bench/e2e/run.py --record-expected
  python3 bench/e2e/run.py --smoke

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json (medians over untraced
samples); with --trace 1 they are its per-layer metrics, taken from
traced samples interleaved with untraced ones.  README.md defines every
metric and workload.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Trace length per workload (instructions per trace), full and smoke.
# The full sizes keep one sample near 1-2 s on one core, so a 30 s run
# takes 15-25 samples and its median holds still.
WORKLOAD_OPS = {
    "paper-warm": (50_000, 20_000),
    "tune-exhaustive": (60_000, 20_000),
    "corpus-build": (500_000, 20_000),
    "segmented-stream": (1_000_000, 64_000),
}
EXPECTED_SEEDS = range(1, 11)
RENDERS = ["table1", "table2", "table4", "fig1_8", "table5", "table6",
           "table7", "table8", "table9", "fig12_13", "btb_pressure"]
# Paper-table binary and trace length (accuracy = ops, timing = ops/2)
# behind each paper-warm artifact, for --record-expected.
RENDER_BINARIES = {
    "table1": ("table1_btb_baseline", 1),
    "table2": ("table2_two_bit_strategy", 1),
    "table4": ("table4_tagless_pattern", 1),
    "fig1_8": ("fig1_8_target_histograms", 1),
    "table5": ("table5_path_addr_bits", 2),
    "table6": ("table6_path_bits_per_target", 2),
    "table7": ("table7_tagged_indexing", 2),
    "table8": ("table8_tagged_path", 2),
    "table9": ("table9_history_length", 2),
    "fig12_13": ("fig12_13_tagless_vs_tagged", 2),
    "btb_pressure": ("btb_pressure", 2),
}
CONTAINER_SUFFIXES = (".tpct", ".tpcs", ".tpbs")
MIN_SAMPLES = 3
HARD_LIMIT_S = 150  # no sample starts later than this into measuring
PROCESS_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def nproc():
    return len(os.sched_getaffinity(0))


class Context:
    """Paths, build and environment shared by every sample."""

    def __init__(self, build_dir):
        self.build_dir = os.path.abspath(build_dir)
        self.work_dir = os.path.join(self.build_dir, "e2e-work")
        self.trace_dir = os.path.join(self.build_dir, "e2e-traces")
        self.driver = os.path.join(self.build_dir, "tpred_e2e")
        # One worker thread.  On a shared host, every extra thread adds
        # exposure to the neighbours' load: the spread of medians over
        # ten samples was about 7% with one job, 9% with two and 16% with
        # four (README.md, Noise).
        self.jobs = 1
        # The driver gets only its own flags: no TPRED_* override
        # (corpus dir, jobs, prefetch) may leak in from the caller.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("TPRED_")}

    def build(self, targets=("tpred_e2e",)):
        if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
            die(f"no repository sources under {ROOT}; bench/e2e builds "
                "the library from the checkout it sits in")
        quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
        if not os.path.isfile(os.path.join(self.build_dir,
                                           "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            if subprocess.run(["cmake", "-S", HERE, "-B", self.build_dir,
                               "-DCMAKE_BUILD_TYPE=Release"] + gen,
                              **quiet).returncode != 0:
                die("cmake configure failed")
        if subprocess.run(["cmake", "--build", self.build_dir, "-j",
                           str(min(nproc(), 4)), "--target", *targets],
                          **quiet).returncode != 0:
            die("build failed")


# Exit status and resource use of one finished child.
Proc = collections.namedtuple("Proc", "code wall_s cpu_s rss_mb")


def spawn(ctx, argv, log_path, timeout_s):
    """Runs argv to completion; times it with os.wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=ctx.env)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6)


def corpus_digests(corpus):
    """Digest of every container file (the manifest carries a time)."""
    out = {}
    for name in sorted(os.listdir(corpus)):
        if name.endswith(CONTAINER_SUFFIXES):
            h = hashlib.sha256()
            with open(os.path.join(corpus, name), "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            out["file:" + name] = h.hexdigest()[:16]
    return out


def output_digests(run_doc, corpus):
    """What a sample is checked on: artifacts plus pinned counters."""
    out = {name: digest(text)
           for name, text in run_doc["artifacts"].items()}
    out["counters"] = digest(json.dumps(run_doc["counters"],
                                        sort_keys=True))
    if run_doc["workload"] == "corpus-build":
        out.update(corpus_digests(corpus))
    return out


class Sample:
    """One request: setup process + timed process, checked."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.ok = False
        self.why = ""
        self.setup = None
        self.run = None
        self.setup_doc = None
        self.run_doc = None
        self.digests = {}

    def e2e(self):
        return {"wall_s": self.run.wall_s, "cpu_s": self.run.cpu_s,
                "peak_rss_mb": self.run.rss_mb,
                "setup_s": self.setup.wall_s}


def run_sample(ctx, workload, seed, ops, index, traced, deadline):
    s = Sample(index, traced)
    work = os.path.join(ctx.work_dir, f"{workload}-s{seed}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus = os.path.join(work, "corpus")
    base = [ctx.driver, "--workload", workload, "--seed", str(seed),
            "--ops", str(ops), "--corpus", corpus, "--jobs", str(ctx.jobs),
            "--sample", str(index)] + (["--trace"] if traced else [])
    try:
        for phase in ("setup", "run"):
            out = os.path.join(work, phase + ".json")
            log = os.path.join(work, phase + ".log")
            timeout = max(1.0, deadline - time.monotonic())
            proc = spawn(ctx, base + ["--phase", phase, "--out", out], log,
                         timeout)
            setattr(s, phase, proc)
            if proc.code != 0:
                with open(log, errors="replace") as f:
                    s.why = f"{phase} exited {proc.code}: {f.read()[-400:]}"
                return s
            with open(out) as f:
                setattr(s, phase + "_doc", json.load(f))
        failed = [k for k, v in s.run_doc["checks"].items() if not v]
        if failed:
            s.why = "in-process check failed: " + ", ".join(failed)
            return s
        s.digests = output_digests(s.run_doc, corpus)
        if traced:
            s.why = span_problems(s.setup_doc) or span_problems(s.run_doc)
            if s.why:
                return s
        s.ok = True
        return s
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- spans --------------------------------------------------------------

def spans_of(doc):
    return {e["args"]["id"]: e for e in doc["traceEvents"]}


def self_ns(doc):
    """Span id -> its wall time minus its children's."""
    spans = spans_of(doc)
    out = {i: e["args"]["wall_ns"] for i, e in spans.items()}
    for e in spans.values():
        if e["args"]["parent"] >= 0:
            out[e["args"]["parent"]] -= e["args"]["wall_ns"]
    return out


def span_problems(doc):
    """Why the span tree does not nest exactly, or "" when it does."""
    spans = spans_of(doc)
    roots = [e for e in spans.values() if e["args"]["parent"] < 0]
    if len(roots) != 1:
        return f"expected one root span, got {len(roots)}"
    last_end = {}
    for i in sorted(spans):
        a = spans[i]["args"]
        start, end = a["start_ns"], a["start_ns"] + a["wall_ns"]
        p = a["parent"]
        if p >= 0:
            pa = spans[p]["args"]
            if start < pa["start_ns"] or end > pa["start_ns"] + pa["wall_ns"]:
                return f"span {spans[i]['name']} leaves its parent"
            if start < last_end.get(p, 0):
                return f"span {spans[i]['name']} overlaps a sibling"
            last_end[p] = end
    selfs = self_ns(doc)
    if min(selfs.values()) < 0 or \
            sum(selfs.values()) != roots[0]["args"]["wall_ns"]:
        return "self times do not sum to the root span"
    return ""


def layer_metrics(sample, jobs):
    """Per-layer metrics of one traced sample (README.md defines them)."""
    run, setup = sample.run_doc, sample.setup_doc
    spans = spans_of(run)
    root = next(e for e in spans.values() if e["args"]["parent"] < 0)
    wall = root["args"]["wall_ns"]
    cpu = max(root["args"]["cpu_ns"], 1)
    d = root["args"]["delta"]
    selfs = self_ns(run)

    def get(name, deltas=d):
        return deltas.get(name, 0)

    def share(name, doc=run, selfs=selfs, whole=wall):
        total = sum(selfs[i] for i, e in spans_of(doc).items()
                    if e["name"] == name)
        return total / whole

    def cpu_share(name):
        return get(name + ".cpu_ns") / cpu

    def ratio(num, other):
        return num / (num + other) if num + other else 0.0

    def per_cpu_s(count, timer):
        ns = get(timer + ".cpu_ns")
        return count / ns * 1e3 if ns else 0.0  # millions per CPU second

    setup_root = next(e for e in spans_of(setup).values()
                      if e["args"]["parent"] < 0)
    setup_selfs = self_ns(setup)

    def setup_share(name):
        return share(name, setup, setup_selfs, setup_root["args"]["wall_ns"])

    persist_ns = sum(
        e["args"]["delta"].get("driver.jobs_wall_ns", 0) -
        e["args"]["delta"].get("phase.record.wall_ns", 0)
        for e in spans.values()
        if e["name"] == "harness.trace_cache.get"
        and e["args"]["delta"].get("corpus.stores", 0) > 0)
    renders = [e for e in spans.values()
               if e["name"].startswith("harness.render.")]
    glue_ns = sum(
        e["args"]["delta"].get("phase.sweep_timing.cpu_ns", 0) +
        e["args"]["delta"].get("phase.timing.cpu_ns", 0) -
        e["args"]["delta"].get("phase.core_run.cpu_ns", 0) for e in renders)
    capacity = wall * jobs

    m = {
        "workloads.record.cpu_share": cpu_share("phase.record"),
        "workloads.record.setup_cpu_share":
            setup_root["args"]["delta"].get("phase.record.cpu_ns", 0) /
            max(setup_root["args"]["cpu_ns"], 1),
        "harness.trace_cache.get.wall_share":
            share("harness.trace_cache.get"),
        "harness.trace_cache.get_stream.wall_share":
            share("harness.trace_cache.get_stream"),
        "harness.trace_cache.recordings": get("trace_cache.recordings"),
        "harness.trace_cache.stream_extractions":
            get("trace_cache.stream_extractions"),
        "corpus.persist.thread_share": persist_ns / capacity,
        "corpus.bytes_stored": get("corpus.bytes_stored"),
        "corpus.stream_bytes_stored": get("stream_corpus.bytes_stored"),
        "corpus.fsyncs": get("corpus.fsyncs"),
        "corpus.bytes_loaded": get("corpus.bytes_loaded"),
        "corpus.stream_bytes_loaded": get("stream_corpus.bytes_loaded"),
        "corpus.hit_ratio": ratio(get("corpus.hits"), get("corpus.misses")),
        "corpus.stream_hit_ratio": ratio(get("stream_corpus.hits"),
                                         get("stream_corpus.misses")),
        "corpus.load_segmented.wall_share": share("corpus.load_segmented"),
        "corpus.prefetch_hit_ratio": ratio(get("segments.prefetch_hits"),
                                           get("segments.prefetch_syncs")),
        "corpus.store.setup_share": setup_share("corpus.store"),
        "corpus.store_segmented.setup_share":
            setup_share("corpus.store_segmented"),
        "trace.extract.count": get("sweep.streams_built") +
        get("trace_cache.stream_extractions"),
        "trace.extract_segmented.wall_share":
            share("trace.extract_segmented"),
        "harness.sweep.cpu_share": cpu_share("phase.sweep"),
        "harness.sweep.branches": get("sweep.branches"),
        "harness.sweep.configs": get("sweep.configs"),
        "harness.sweep.mbranch_per_cpu_s":
            per_cpu_s(get("sweep.branches"), "phase.sweep"),
        "harness.sweep.run.wall_share": share("harness.sweep.run"),
        "tune.run.wall_share": share("tune.run"),
        "tune.evals": get("tune.evals"),
        "uarch.core_run.cpu_share": cpu_share("phase.core_run"),
        "uarch.core_run.count": get("phase.core_run.count"),
        "uarch.instructions_retired": get("core.instructions_retired"),
        "uarch.cycles_simulated": get("core.cycles_simulated"),
        "uarch.minst_per_cpu_s":
            per_cpu_s(get("core.instructions_retired"), "phase.core_run"),
        "harness.timing_sweep.cpu_share": cpu_share("phase.sweep_timing"),
        "harness.timing.cpu_share": cpu_share("phase.timing"),
        "harness.timing_sweep.glue.cpu_share": glue_ns / cpu,
        "harness.timing_sweep.forks": get("sweep.timing_forks"),
        "harness.timing_sweep.shared_cycle_frac":
            ratio(get("sweep.shared_cycles"), get("sweep.member_cycles")),
        "harness.runner.jobs": get("runner.jobs"),
        "harness.shard.accuracy_streaming.wall_share":
            share("harness.shard.accuracy_streaming"),
        "harness.shard.accuracy_sharded.wall_share":
            share("harness.shard.accuracy_sharded"),
        "harness.shard.timing_streaming.wall_share":
            share("harness.shard.timing_streaming"),
        "harness.shard.windows_opened": get("shard.windows_opened"),
        "harness.shard.checkpoint_bytes": get("shard.checkpoint_bytes"),
        "obs.unaccounted_share": 1 - wall / 1e9 / sample.run.wall_s,
    }
    for name in RENDERS:
        span = "harness.render." + name
        m[span + ".wall_share"] = share(span)
        m[span + ".cpu_share"] = sum(
            e["args"]["cpu_ns"] for e in renders if e["name"] == span) / cpu
    return m


def layer_seconds(sample):
    """Span name -> (self wall s, calls) over the setup and timed runs."""
    out = {}
    for phase, doc in (("setup", sample.setup_doc), ("run", sample.run_doc)):
        selfs = self_ns(doc)
        for i, e in spans_of(doc).items():
            key = (phase, e["name"])
            secs, calls = out.get(key, (0.0, 0))
            out[key] = (secs + selfs[i] / 1e9, calls + 1)
    return out


def write_chrome_trace(ctx, workload, seed, sample):
    os.makedirs(ctx.trace_dir, exist_ok=True)
    path = os.path.join(ctx.trace_dir,
                        f"{workload}-seed{seed}-sample{sample.index}.json")
    events = [{"ph": "M", "pid": pid, "name": "process_name",
               "args": {"name": name}}
              for pid, name in ((1, "setup"), (2, "timed run"))]
    events += sample.setup_doc["traceEvents"] + sample.run_doc["traceEvents"]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


# --- expected digests and fingerprint ---------------------------------------

def load_expected():
    if not os.path.isfile(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def pinned(expected, workload, ops, seed):
    entry = expected.get(workload, {})
    if entry.get("ops") != ops:
        return None
    return entry.get("seeds", {}).get(str(seed))


def source_digest():
    """Content digest of the library sources and this benchmark."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("bench", "e2e")):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                if name == "expected.json" or \
                        name.endswith((".md", ".pyc")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; git would search its parents
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


# Fields that must match for two results to be comparable.
MACHINE_FIELDS = ("nproc", "jobs", "simd_isa", "native", "compiler",
                  "build_type", "assertions")


def fingerprint(ctx, run_doc):
    fp = dict(run_doc["fingerprint"]) if run_doc else {}
    fp.update(nproc=nproc(), jobs=ctx.jobs, git_commit=git_commit(),
              source_sha=source_digest())
    return fp


# --- one run ---------------------------------------------------------------

def measure(ctx, workload, seed, seconds, trace, expected, ops=None,
            counts=None):
    """Closed loop of samples for about @seconds (or exactly @counts =
    (untraced, traced)); returns the samples."""
    ops = ops or WORKLOAD_OPS[workload][0]
    want = pinned(expected, workload, ops, seed)
    start = time.monotonic()
    deadline = start + PROCESS_TIMEOUT_S
    samples = []
    while True:
        if counts:
            untraced = sum(not s.traced for s in samples)
            if untraced >= counts[0] and len(samples) >= sum(counts):
                break
            traced = untraced >= counts[0]
        else:
            traced = trace and len(samples) % 2 == 1
        s = run_sample(ctx, workload, seed, ops, len(samples), traced,
                       deadline)
        if s.ok:
            ref = want or next((x.digests for x in samples if x.ok), None)
            if ref is not None and s.digests != ref:
                bad = sorted(k for k in set(ref) | set(s.digests)
                             if ref.get(k) != s.digests.get(k))
                s.ok = False
                s.why = ("digest mismatch vs " +
                         ("expected.json" if want else "sample 0") + ": " +
                         ", ".join(bad))
        if not s.ok:
            print(f"run.py: {workload} seed {seed} sample {s.index} "
                  f"failed: {s.why}", file=sys.stderr)
        samples.append(s)
        if counts:
            continue
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples)
        enough = len(samples) >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES)
        if enough and elapsed + per_sample > seconds:
            break
        if elapsed + per_sample > HARD_LIMIT_S or s.run is None:
            break
    return samples


def summarize(samples, names, trace, jobs):
    """name -> (q1, median, q3, n) over the samples the mode uses."""
    timed = [s for s in samples if s.run is not None and s.setup is not None
             and s.traced == trace]
    if trace:
        rows = [layer_metrics(s, jobs) for s in timed if s.ok]
        plain = [s.run.wall_s for s in samples
                 if not s.traced and s.run is not None]
        if rows and plain:
            traced_wall = statistics.median(s.run.wall_s for s in timed)
            for r in rows:
                r["obs.trace_overhead_frac"] = \
                    traced_wall / statistics.median(plain) - 1
    else:
        rows = [s.e2e() for s in timed]
    out = {}
    for name in names:
        values = [r[name] for r in rows if name in r]
        if values:
            out[name] = quartiles(values) + (len(values),)
        else:
            out[name] = (0.0, 0.0, 0.0, 0)
    return out


def print_table(workload, seed, summary, units, samples):
    print(f"== {workload} (seed {seed}, {len(samples)} samples) ==")
    print(f"  {'metric':48s} {'median':>14s} {'q1':>14s} {'q3':>14s}  n")
    for name, (q1, med, q3, n) in summary.items():
        print(f"  {name:48s} {med:14.6g} {q1:14.6g} {q3:14.6g}  {n}"
              f"  {units[name]}")


def print_layers(sample):
    layers = layer_seconds(sample)
    print(f"-- self time by span, traced sample {sample.index} --")
    for (phase, name), (secs, calls) in sorted(
            layers.items(), key=lambda kv: (kv[0][0], -kv[1][0])):
        print(f"  {phase:6s} {name:44s} {secs:10.4f} s  x{calls}")
    root_s = sum(secs for (phase, _), (secs, _) in layers.items()
                 if phase == "run")
    print(f"  timed wall {sample.run.wall_s:.4f} s; spans cover "
          f"{root_s:.4f} s; unaccounted {sample.run.wall_s - root_s:.4f} s")


def run_workload(ctx, bench, workload, seed, seconds, trace, expected,
                 out_path):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    samples = measure(ctx, workload, seed, seconds, trace, expected)
    summary = summarize(samples, list(units), trace, ctx.jobs)
    print_table(workload, seed, summary, units, samples)
    traced = [s for s in samples if s.traced and s.ok]
    if traced:
        print_layers(traced[0])
        print("  chrome trace: " +
              write_chrome_trace(ctx, workload, seed, traced[0]))
    failed = sum(not s.ok for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": med, "unit": units[name]}
                    for name, (_, med, _, _) in summary.items()},
    }
    if out_path:
        first = next((s.run_doc for s in samples if s.run_doc), None)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "fingerprint": fingerprint(ctx, first),
            "summary": {k: list(v) for k, v in summary.items()},
            "samples": [dict(index=s.index, traced=s.traced, ok=s.ok,
                             why=s.why,
                             **(s.e2e() if s.run and s.setup else {}))
                        for s in samples],
            **result,
        }
        with open(out_path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return result


# --- compare ----------------------------------------------------------------

def compare(bench, parent_path, change_path):
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    parent, change = load(parent_path), load(change_path)
    prints = {json.dumps({k: r["fingerprint"].get(k)
                          for k in MACHINE_FIELDS}, sort_keys=True)
              for r in parent + change}
    if len(prints) != 1:
        die("refusing to compare results with different fingerprints:\n  "
            + "\n  ".join(sorted(prints)))
    metrics = [m for m in bench["end_to_end"]]
    regressions = 0
    print(f"{'workload':18s} {'metric':12s} {'parent med [q1,q3]':>30s} "
          f"{'change med [q1,q3]':>30s} {'delta':>8s} {'bound':>6s} "
          f"{'wins':>6s}  verdict")
    for workload in sorted({r["workload"] for r in parent + change}):
        a_runs = [r for r in parent if r["workload"] == workload
                  and not r["trace"]]
        b_runs = [r for r in change if r["workload"] == workload
                  and not r["trace"]]
        if not a_runs or not b_runs:
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            pairs = list(zip(a, b))
            wins = sum(y < x for x, y in pairs) / len(pairs)
            delta = bmed / amed - 1 if amed else 0.0
            if (aq3 - aq1) / amed > bound and not max(b) < min(a):
                verdict = "unresolved (parent spread exceeds bound)"
            elif delta > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif wins >= 0.9 and amed - bmed > aq3 - aq1:
                verdict = "gain"
            else:
                verdict = "no change beyond noise"
            print(f"{workload:18s} {name:12s} "
                  f"{f'{amed:.4g} [{aq1:.4g},{aq3:.4g}]':>30s} "
                  f"{f'{bmed:.4g} [{bq1:.4g},{bq3:.4g}]':>30s} "
                  f"{delta:+8.1%} {bound:6.0%} {wins:6.0%}  {verdict}")
    return 1 if regressions else 0


# --- expected digests --------------------------------------------------------

def record_expected(ctx):
    """Pins digests for EXPECTED_SEEDS at the full sizes and checks the
    paper-warm seed-1 text against the paper-table binaries."""
    ctx.build(["tpred_e2e"] + [b for b, _ in RENDER_BINARIES.values()])
    expected = {}
    seed1_docs = {}
    for workload, (ops, _) in WORKLOAD_OPS.items():
        entry = {"ops": ops, "seeds": {}}
        for seed in EXPECTED_SEEDS:
            s = run_sample(ctx, workload, seed, ops, 0, False,
                           time.monotonic() + PROCESS_TIMEOUT_S)
            if not s.ok:
                die(f"{workload} seed {seed}: {s.why}", 1)
            entry["seeds"][str(seed)] = s.digests
            if seed == 1:
                seed1_docs[workload] = s.run_doc
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
        expected[workload] = entry

    ops = WORKLOAD_OPS["paper-warm"][0]
    artifacts = seed1_docs["paper-warm"]["artifacts"]
    for name, (binary, divisor) in RENDER_BINARIES.items():
        scratch = os.path.join(ctx.work_dir, "binary-check")
        os.makedirs(scratch, exist_ok=True)
        env = dict(ctx.env, TPRED_JOBS=str(ctx.jobs),
                   TPRED_BENCH_OUT=os.path.join(scratch, "lanes.json"))
        r = subprocess.run(
            [os.path.join(ctx.build_dir, "tpred", "bench", binary),
             str(ops // divisor)], capture_output=True, text=True, env=env,
            cwd=scratch, timeout=PROCESS_TIMEOUT_S)
        shutil.rmtree(scratch, ignore_errors=True)
        if r.returncode != 0 or artifacts[name] not in r.stdout:
            die(f"{name}: the driver's text differs from {binary}'s output",
                1)
        print(f"{name} matches {binary} at {ops // divisor} ops",
              file=sys.stderr)

    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)


# --- smoke -------------------------------------------------------------------

def smoke(ctx, bench):
    """Every workload at a tiny size: 2 samples plus 1 traced sample
    must pass, report every metric and nest their spans exactly; a
    tampered digest must fail the run."""
    names = {"end_to_end": [m["name"] for m in bench["end_to_end"]],
             "per_layer": [m["name"] for m in bench["per_layer"]]}
    problems = []
    for workload, (_, ops) in WORKLOAD_OPS.items():
        first = run_sample(ctx, workload, 1, ops, 0, False,
                           time.monotonic() + PROCESS_TIMEOUT_S)
        if not first.ok:
            problems.append(f"{workload}: {first.why}")
            continue
        expected = {workload: {"ops": ops, "seeds": {"1": first.digests}}}
        samples = measure(ctx, workload, 1, 0, True, expected, ops,
                          counts=(2, 1))
        problems += [f"{workload} sample {s.index}: {s.why}"
                     for s in samples if not s.ok]
        for kind, trace in (("end_to_end", False), ("per_layer", True)):
            summary = summarize(samples, names[kind], trace, ctx.jobs)
            problems += [f"{workload}: no {name}"
                         for name, v in summary.items() if v[3] == 0]
        tampered = dict(first.digests)
        key = sorted(tampered)[0]
        tampered[key] = "0" * 16
        print(f"smoke {workload}: tampering with the {key} digest; the "
              "next failure is expected", file=sys.stderr)
        bad = measure(ctx, workload, 1, 0, False,
                      {workload: {"ops": ops, "seeds": {"1": tampered}}},
                      ops, counts=(1, 0))
        if any(s.ok for s in bad):
            problems.append(f"{workload}: a tampered {key} digest passed")
        print(f"smoke {workload}: done", file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        with open(BENCHMARK_PATH) as f:
            return compare(json.load(f), sys.argv[2], sys.argv[3])

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOAD_OPS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build"))
    p.add_argument("--out", help="append each run's record (JSON lines) "
                   "here, for `run.py compare`")
    p.add_argument("--record-expected", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    ctx = Context(args.build_dir)
    if not os.path.isfile(BENCHMARK_PATH):
        die(f"missing {BENCHMARK_PATH}")
    with open(BENCHMARK_PATH) as f:
        bench = json.load(f)
    ctx.build()
    if args.record_expected:
        record_expected(ctx)
        return 0
    if args.smoke:
        return smoke(ctx, bench)

    expected = load_expected()
    workloads = [args.workload] if args.workload else list(WORKLOAD_OPS)
    results = [run_workload(ctx, bench, w, args.seed, args.seconds,
                            bool(args.trace), expected, args.out)
               for w in workloads]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
