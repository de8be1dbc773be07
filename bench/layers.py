"""The traced run: per-layer metrics from spans around qocc's public functions.

One traced run replays one sweep of every workload's operations in-process,
three times, with spans on (``spans.Tracer``); the CLI workloads replay their
argv lists through ``qocc.cli.main``.  Every layer is exercised whichever
workload is named, and each layer metric is taken from the workload where
that layer matters (see README.md).  The named workload is then swept with
tracing off and on in turn to give the tracing overhead.
"""
from __future__ import annotations

import os
import statistics
import time

import inputs
import spans
import workloads

REPLAYS = 3
OVERHEAD_S = 2.0  # at least this long on untraced/traced pairs, however late they start


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def traced_run(name: str, seed: int, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    sweep, plain = workloads.setup("corpus-sweep", seed)
    # before any other workload's set-up has grown the heap
    before = _rss_bytes()
    docs = plain.load_corpus(sweep.path)
    load_rss = _rss_bytes() - before
    del docs
    replays = {workload: sweep if workload == "corpus-sweep" else workloads.setup(workload, seed)[0]
               for workload in workloads.WORKLOADS}
    for workload in replays.values():
        workload.sweep(plain, workloads.Recorder())

    tracer = spans.Tracer()
    tracer.install()
    traced = workloads.make_api(tracer)
    rec = workloads.Recorder()
    try:
        for i in range(REPLAYS):
            for wname, workload in replays.items():
                tracer.run = f"{wname}/{i}"
                workload.sweep(traced, rec)
    finally:
        tracer.uninstall()
    out = inputs.CACHE_ROOT / "spans"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(out / f"{name}-seed{seed}.jsonl")

    # tracing overhead on the named workload: alternate untraced and traced
    # sweeps, compare their fastest sweep times (Recorder.summary's "wall")
    target = replays[name]
    off, on = workloads.Recorder(), workloads.Recorder()
    deadline = max(deadline, time.perf_counter() + OVERHEAD_S)
    while time.perf_counter() < deadline or len(on.sweeps) < 3:
        target.sweep(plain, off)
        overhead_tracer = spans.Tracer()
        overhead_tracer.install()
        try:
            target.sweep(workloads.make_api(overhead_tracer), on)
        finally:
            overhead_tracer.uninstall()
    metrics = layer_metrics(tracer.spans, sweep, load_rss)
    metrics["trace.overhead_pct"] = 100.0 * (on.summary()["wall"] / off.summary()["wall"] - 1.0)
    for extra in (off, on):
        rec.attempted += extra.attempted
        rec.failed += extra.failed
        rec.wrong += extra.wrong[:5]
        rec.errors.update(extra.errors)
    summary = rec.summary()
    summary["layers"] = metrics
    summary["overhead_pairs"] = len(on.sweeps)
    return summary


def layer_metrics(all_spans: list[spans.Span], sweep: workloads.CorpusSweep, load_rss: int) -> dict:
    self_time = spans.self_times(all_spans)

    def pick(workload: str, name: str, detail: str | None = None):
        return [i for i, s in enumerate(all_spans)
                if s.run.split("/")[0] == workload and s.name == name
                and (detail is None or s.detail == detail)]

    def duration(workload: str, name: str, scale: float, detail: str | None = None) -> float:
        return scale * _median(all_spans[i].end - all_spans[i].start for i in pick(workload, name, detail))

    def self_of(workload: str, name: str, scale: float) -> float:
        return scale * _median(self_time[i] for i in pick(workload, name))

    batch = [s for s in all_spans if s.run.startswith("analyze-batch/")]
    fits = [s for s in batch if s.name in ("context_model.fit_params", "context_model.fit_params_constrained")]
    load_s = duration("corpus-sweep", "corpus.load_corpus", 1.0)
    m = {
        "cli.self_ms": self_of("cli-cold", "cli.main", 1e3),
        "corpus.load_corpus_s": load_s,
        "corpus.load_corpus_dir_s": duration("count-cold", "corpus.load_corpus", 1.0),
        "corpus.tokens_per_s": sweep.truth["tokens"] / load_s,
        "corpus.docs": sweep.truth["n_docs"],
        "corpus.tokens": sweep.truth["tokens"],
        "corpus.bytes": os.path.getsize(sweep.path),
        "corpus.load_rss_mb": load_rss / 2**20,
        "corpus.count_corpus_ms": duration("corpus-sweep", "corpus.count_corpus", 1e3),
        "corpus.marginals_us": duration("corpus-sweep", "corpus.marginals", 1e6),
        "interference.interference_interval_us": duration("analyze-batch", "interference.interference_interval", 1e6),
        "interference.classify_extension_us": duration("analyze-batch", "interference.classify_extension", 1e6),
        "interference.interval_calls_per_report":
            spans.count_under(all_spans, "interference.interference_interval", "report.build_report")
            / sum(1 for s in all_spans if s.name == "report.build_report"),
    }
    for strategy in inputs.FIT_STRATEGIES:
        m[f"context_model.fit_params_us.{strategy}"] = duration(
            "analyze-batch", "context_model.fit_params", 1e6, strategy)
    m.update({
        "context_model.fit_params_constrained_us": duration("analyze-batch", "context_model.fit_params_constrained", 1e6),
        "context_model.context_interval_us": duration("analyze-batch", "context_model.context_interval", 1e6),
        "context_model.model_evals_per_fit":
            sum(s.counts.get("context_model.model_evals", 0) for s in fits) / len(fits),
        "context_model.fit_errors":
            sum(1 for s in all_spans if s.name.startswith("context_model.fit_params") and s.error) // REPLAYS,
        "report.build_report_us": duration("analyze-batch", "report.build_report", 1e6),
        "report.self_us": self_of("analyze-batch", "report.build_report", 1e6),
        "report.serialize_us": duration("analyze-batch", "report.serialize", 1e6),
    })
    return m
