//! End-to-end benchmark of the STOKE reproduction.
//!
//! ```text
//! e2ebench --workload <search-short|search-long|validate|serve-mix>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public API for about `--seconds`,
//! checks every output against an independent reference, prints a
//! report, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `e2ebench/README.md`.

mod check;
mod common;
mod report;
mod search;
mod serve;
mod validate;

use common::peak_rss_mib;
use std::time::Duration;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "share"),
];

/// Further end-to-end figures, printed in the report. The per-operation
/// latencies are left out of the result line: on a shared two-core box
/// their run-to-run spread is wider than any bound the result may carry.
const WORKLOAD_FIGURES: [(&str, &str); 15] = [
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("failed_frac", "share"),
    ("speedup_geomean", "ratio"),
    ("improved_frac", "share"),
    ("proven_frac", "share"),
    ("decided_frac", "share"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.tail", "ms"),
    ("limit_wait_s", "s"),
    ("jobs_per_s", "1/s"),
    ("hit_us.p50", "us"),
    ("hit_us.tail", "us"),
    ("miss_ms.p50", "ms"),
    ("hit_ratio", "share"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("testgen.ms", "ms"),
    ("synth.ms", "ms"),
    ("opt.ms", "ms"),
    ("synth.proposals", "count"),
    ("opt.proposals", "count"),
    ("synth.ns_per_proposal", "ns"),
    ("opt.ns_per_proposal", "ns"),
    ("mcmc.accept_frac", "share"),
    ("mcmc.accept_frac.opcode", "share"),
    ("mcmc.accept_frac.operand", "share"),
    ("mcmc.accept_frac.swap", "share"),
    ("mcmc.accept_frac.instruction", "share"),
    ("synth.success_frac", "share"),
    ("cost.evals", "count"),
    ("cost.testcases_per_eval", "count"),
    ("cost.early_exit_frac", "share"),
    ("emu.instructions_skipped", "count"),
    ("emu.checkpoint_restores", "count"),
    ("validate.tests_ms", "ms"),
    ("validate.symbolic_ms", "ms"),
    ("validate.queries", "count"),
    ("validate.proven", "count"),
    ("validate.refuted", "count"),
    ("validate.undecided", "count"),
    ("validate.counterexamples", "count"),
    ("validate.terms", "count"),
    ("rerank.ms", "ms"),
    ("rerank.candidates", "count"),
    ("serve.key_us", "us"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.tail", "us"),
    ("serve.hit_run_us.p50", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.nearest_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.hits", "count"),
    ("serve.warm_starts", "count"),
    ("serve.cold_searches", "count"),
    ("obs.overhead_frac", "share"),
    ("trace.overhead_frac", "share"),
    ("trace.phase_coverage_min", "share"),
    ("quality.speedup_geomean", "ratio"),
    ("quality.proven_frac", "share"),
    ("quality.decided_frac", "share"),
    ("quality.hit_ratio", "share"),
    ("quality.failed_frac", "share"),
];

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <search-short|search-long|validate|serve-mix> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Options {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(25),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = Duration::from_secs(value.parse().unwrap_or_else(|_| usage()))
            }
            "--trace" => opts.trace = value == "1",
            _ => usage(),
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        validate::worker();
        return;
    }
    let opts = parse(&args);
    // Only serve-mix draws what must repeat exactly (its renamings) from
    // the seed; the other workloads must repeat across seeds too.
    let per_seed = opts.workload == "serve-mix";
    let mut report = report::Report::new(&opts.workload, opts.seed, opts.trace, per_seed);
    let mut m = match opts.workload.as_str() {
        "search-short" => search::run(&opts, false, &mut report),
        "search-long" => search::run(&opts, true, &mut report),
        "validate" => validate::run(&opts, &mut report),
        "serve-mix" => serve::run(&opts, &mut report),
        _ => usage(),
    };
    if m.get("peak_rss_mb") == 0.0 {
        m.set("peak_rss_mb", peak_rss_mib(), "MiB");
    }
    // The workload's quality figures, copied into the traced run's
    // per-layer set so they are recorded run over run.
    for (from, to) in [
        ("speedup_geomean", "quality.speedup_geomean"),
        ("proven_frac", "quality.proven_frac"),
        ("decided_frac", "quality.decided_frac"),
        ("hit_ratio", "quality.hit_ratio"),
        ("failed_frac", "quality.failed_frac"),
    ] {
        if let Some((v, u)) = m.values.get(from).cloned() {
            m.set(to, v, &u);
        }
    }
    let names: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .chain(&WORKLOAD_FIGURES)
            .copied()
            .collect()
    };
    print!("{}", report.finish(&m, &names));
    let correct = report.correct();
    let (attempted, failed) = report.totals();
    let printed: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        m.json(printed)
    );
}
