//! Regenerates `BENCH_emulation.json`: median `eq'` evaluation times for
//! the execution backends (interp / prepared / batched) on the Montgomery
//! and p01 kernels at 32 test cases, plus a proposal-locality comparison
//! of the batched and incremental backends — random single-slot edits
//! replayed through the chain's hint/commit protocol, the workload the
//! prefix-checkpoint backend is built for — so the perf trajectory is
//! tracked across releases instead of claimed once.
//!
//! ```text
//! cargo run --release -p stoke-bench --bin bench-emulation -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sample count to a smoke-test size (used by CI to
//! keep the harness from rotting); `--out` overrides the output path
//! (default `BENCH_emulation.json` in the current directory). The timing
//! is a hand-rolled median-of-samples loop rather than the criterion
//! harness, because the committed JSON needs stable medians and the
//! criterion wall-clock harness is a dev-dependency printing min/mean/max
//! only.

use std::time::Instant;
use stoke::{generate_testcases, BackendSpec, Config, CostFn, Proposer};
use stoke_bench::spec_for;
use stoke_emu::PreparedProgram;
use stoke_workloads::{hackers_delight, kernels, Kernel};
use stoke_x86::Instruction;

struct Measurement {
    backend: &'static str,
    median_ns_per_eval: f64,
    evals_per_sec: f64,
}

/// Median nanoseconds per `eq'` evaluation: `samples` timed batches of
/// `iters` evaluations each, median of the per-evaluation means. The
/// running total is folded into a sink so the evaluation cannot be
/// optimized away.
fn measure(
    cost: &mut CostFn,
    instrs: &[Instruction],
    iters: u32,
    samples: usize,
    sink: &mut u64,
) -> f64 {
    // Warm-up: populate scratch buffers and caches.
    for _ in 0..iters {
        *sink = sink.wrapping_add(cost.eq_prime(instrs));
    }
    let mut per_eval: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                *sink = sink.wrapping_add(cost.eq_prime(instrs));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_eval.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    per_eval[samples / 2]
}

fn bench_kernel(kernel: &Kernel, iters: u32, samples: usize, sink: &mut u64) -> Vec<Measurement> {
    let spec = spec_for(kernel);
    let suite = generate_testcases(&spec, 32, 1);
    let instrs: Vec<Instruction> = spec.program.iter().cloned().collect();
    let backends = [
        ("interp", BackendSpec::Interp),
        ("prepared", BackendSpec::Prepared),
        ("batched", BackendSpec::Batched),
    ];
    // The backends must agree before being compared.
    let totals: Vec<u64> = backends
        .iter()
        .map(|(_, backend)| {
            CostFn::new(
                Config {
                    backend: *backend,
                    ..Config::default()
                },
                suite.clone(),
                spec.program.static_latency(),
            )
            .eq_prime(&instrs)
        })
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "{}: backends disagree on eq' ({totals:?})",
        kernel.name
    );
    backends
        .iter()
        .map(|(name, backend)| {
            let mut cost = CostFn::new(
                Config {
                    backend: *backend,
                    ..Config::default()
                },
                suite.clone(),
                spec.program.static_latency(),
            );
            let median = measure(&mut cost, &instrs, iters, samples, sink);
            Measurement {
                backend: name,
                median_ns_per_eval: median,
                evals_per_sec: 1e9 / median,
            }
        })
        .collect()
}

/// One step of the proposal-locality schedule: replace the instruction at
/// `slot` with `instr`, then accept or reject.
struct Edit {
    slot: usize,
    instr: Instruction,
    accept: bool,
}

/// A deterministic schedule of random single-slot edits over `base`, the
/// edit locality an MCMC chain exhibits (most proposals touch one slot;
/// roughly one in eight is accepted).
fn edit_schedule(base: &[Instruction], len: usize, seed: u64) -> Vec<Edit> {
    let mut proposer = Proposer::new(
        Config {
            ell: base.len(),
            ..Config::default()
        },
        seed,
    );
    // xorshift64* for slot/accept draws: tiny, deterministic, and keeps
    // this binary independent of any RNG crate.
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..len)
        .map(|_| {
            let r = next();
            Edit {
                slot: (r as usize) % base.len(),
                instr: proposer.random_instruction(),
                accept: (r >> 33) % 8 == 0,
            }
        })
        .collect()
}

/// Replay the schedule once through `cost`, driving the chain's
/// hint/commit protocol (both calls are no-ops for the batched backend),
/// and fold every `eq'` total into the sink.
fn replay(cost: &mut CostFn, base: &[Instruction], schedule: &[Edit], sink: &mut u64) {
    let mut current: Vec<Instruction> = base.to_vec();
    let mut candidate = current.clone();
    cost.commit_baseline(&PreparedProgram::new(&current), 0);
    for edit in schedule {
        candidate.clone_from(&current);
        candidate[edit.slot] = edit.instr;
        cost.set_reuse_prefix(Some(edit.slot));
        *sink = sink.wrapping_add(cost.eq_prime(&candidate));
        if edit.accept {
            std::mem::swap(&mut current, &mut candidate);
            cost.commit_baseline(&PreparedProgram::new(&current), edit.slot);
        }
    }
}

/// Median nanoseconds per proposal at single-slot edit locality for one
/// backend: `samples` timed replays of the same deterministic schedule.
fn measure_proposals(
    kernel: &Kernel,
    backend: BackendSpec,
    iters: u32,
    samples: usize,
    sink: &mut u64,
) -> f64 {
    let spec = spec_for(kernel);
    let suite = generate_testcases(&spec, 32, 1);
    let instrs: Vec<Instruction> = spec.program.iter().cloned().collect();
    let schedule = edit_schedule(&instrs, iters as usize, 0x0ddba11);
    let mut cost = CostFn::new(
        Config {
            backend,
            ..Config::default()
        },
        suite,
        spec.program.static_latency(),
    );
    replay(&mut cost, &instrs, &schedule, sink);
    let mut per_proposal: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            replay(&mut cost, &instrs, &schedule, sink);
            t0.elapsed().as_nanos() as f64 / schedule.len() as f64
        })
        .collect();
    per_proposal.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    per_proposal[samples / 2]
}

fn json_for(
    kernel_name: &str,
    measurements: &[Measurement],
    proposals: &[(&'static str, f64)],
) -> String {
    let by_name = |name: &str| {
        measurements
            .iter()
            .find(|m| m.backend == name)
            .expect("all backends measured")
    };
    let speedup = |a: &str, b: &str| by_name(b).median_ns_per_eval / by_name(a).median_ns_per_eval;
    let proposal = |name: &str| {
        proposals
            .iter()
            .find(|(n, _)| *n == name)
            .expect("all proposal backends measured")
            .1
    };
    let mut out = format!("    {{\n      \"kernel\": \"{kernel_name}\",\n");
    for m in measurements {
        out.push_str(&format!(
            "      \"{}\": {{ \"median_ns_per_eval\": {:.1}, \"evals_per_sec\": {:.1} }},\n",
            m.backend, m.median_ns_per_eval, m.evals_per_sec
        ));
    }
    out.push_str(&format!(
        "      \"speedup_batched_vs_prepared\": {:.2},\n",
        speedup("batched", "prepared")
    ));
    out.push_str(&format!(
        "      \"speedup_batched_vs_interp\": {:.2},\n",
        speedup("batched", "interp")
    ));
    out.push_str("      \"proposals\": {\n");
    for (name, median) in proposals {
        out.push_str(&format!(
            "        \"{name}\": {{ \"median_ns_per_proposal\": {median:.1} }},\n"
        ));
    }
    out.push_str(&format!(
        "        \"speedup_incremental_vs_batched\": {:.2}\n      }}\n    }}",
        proposal("batched") / proposal("incremental")
    ));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_emulation.json".to_string());
    let (iters, samples) = if quick { (20, 3) } else { (2_000, 15) };
    let mut sink = 0u64;
    let kernels = [kernels::montgomery(), hackers_delight::p01()];
    let mut entries = Vec::new();
    for kernel in &kernels {
        eprintln!("benchmarking eq'/{} (32 test cases)...", kernel.name);
        let measurements = bench_kernel(kernel, iters, samples, &mut sink);
        for m in &measurements {
            eprintln!(
                "  {:<9} {:>10.1} ns/eval  {:>12.1} evals/s",
                m.backend, m.median_ns_per_eval, m.evals_per_sec
            );
        }
        eprintln!(
            "benchmarking proposals/{} (single-slot edits, 32 test cases)...",
            kernel.name
        );
        // Separate sinks so the replayed eq' totals double as a
        // bit-identity check between the two backends.
        let (mut sink_b, mut sink_i) = (0u64, 0u64);
        let proposals: Vec<(&'static str, f64)> = vec![
            (
                "batched",
                measure_proposals(kernel, BackendSpec::Batched, iters, samples, &mut sink_b),
            ),
            (
                "incremental",
                measure_proposals(
                    kernel,
                    BackendSpec::Incremental,
                    iters,
                    samples,
                    &mut sink_i,
                ),
            ),
        ];
        assert_eq!(
            sink_b, sink_i,
            "{}: incremental eq' totals diverge from batched",
            kernel.name
        );
        sink = sink.wrapping_add(sink_b).wrapping_add(sink_i);
        for (name, median) in &proposals {
            eprintln!("  {name:<11} {median:>10.1} ns/proposal");
        }
        entries.push(json_for(kernel.name, &measurements, &proposals));
    }
    let json = format!(
        "{{\n  \"description\": \"median eq' suite-evaluation time per execution backend and \
         median ns/proposal at single-slot edit locality (32 test cases); regenerate with: \
         cargo run --release -p stoke-bench --bin bench-emulation\",\n  \"quick\": {quick},\n  \
         \"testcases\": 32,\n  \"samples_per_backend\": {samples},\n  \
         \"evals_per_sample\": {iters},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("wrote {out_path} (sink {sink:x})");
}
