//! The `search-short` and `search-long` workloads: the full Figure 9
//! pipeline (`Session::run`) on fixed kernel sets, one kernel after
//! another, in the `sweep_config` shape with the default fixed seed.

use crate::check;
use crate::common::{
    geomean, median, ms, peak_rss_mib, ratio, reset_peak_rss, span_ms, speed_note, tail, Metrics,
    SpanTree, Speed, Tracer,
};
use crate::report::Report;
use crate::Options;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stoke::{
    Cascade, ChainStats, EvalStats, MoveKind, MoveStats, Phase, SearchObserver, Session,
    StokeResult, TargetSpec, ValidationVerdict, Verdict, Verification, Verifier, VerifyContext,
    VerifyStatus,
};
use stoke_bench::{spec_for, sweep_config};
use stoke_obs::{MetricsRegistry, RingSink};
use stoke_verify::{EquivResult, Validator};
use stoke_workloads::Kernel;
use stoke_x86::Program;

/// Kernels of `search-short`: every kernel of at most 34 instructions.
const SHORT: [&str; 20] = [
    "p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08", "p09", "p10", "p11", "p12", "p13",
    "p14", "p15", "p16", "p17", "p18", "p19", "list",
];
/// Kernels of `search-long`: the 55–209 instruction kernels.
const LONG: [&str; 8] = ["p20", "p21", "p22", "p23", "p24", "p25", "mont", "saxpy"];

/// Optimization iterations per kernel (synthesis gets a quarter), chosen so
/// one pass over the kernel set takes a few seconds on one core.
const SHORT_ITERATIONS: u64 = 15_000;
const LONG_ITERATIONS: u64 = 10_000;
/// Budget of the warm-up search in set-up.
const WARM_UP_ITERATIONS: u64 = 1_000;

pub struct Prepared {
    pub kernel: Kernel,
    pub spec: TargetSpec,
}

/// Build the kernel list: compile each kernel's `-O0` target.
pub fn prepare(names: &[&str]) -> Vec<Prepared> {
    let all = stoke_workloads::all_kernels();
    names
        .iter()
        .map(|name| {
            let kernel = all
                .iter()
                .find(|k| k.name == *name)
                .expect("every workload kernel exists")
                .clone();
            let spec = spec_for(&kernel);
            Prepared { kernel, spec }
        })
        .collect()
}

/// Per-target phase marks and chain accounting collected through the
/// public observer interface.
#[derive(Default)]
struct ProbeState {
    marks: Vec<(Phase, Instant)>,
    end: Option<Instant>,
    synth_proposals: u64,
    opt_proposals: u64,
    moves: MoveStats,
    eval: EvalStats,
    candidates: u64,
}

#[derive(Default)]
struct Probe {
    state: Mutex<ProbeState>,
}

impl SearchObserver for Probe {
    fn on_phase_start(&self, _target: usize, phase: Phase) {
        let now = Instant::now();
        self.state
            .lock()
            .expect("probe lock")
            .marks
            .push((phase, now));
    }

    fn on_candidate(&self, _target: usize, _candidate: &Program, _cost: f64) {
        self.state.lock().expect("probe lock").candidates += 1;
    }

    fn on_chain_end(&self, stats: &ChainStats) {
        let mut s = self.state.lock().expect("probe lock");
        match stats.phase {
            Phase::Synthesis => s.synth_proposals += stats.proposals,
            _ => s.opt_proposals += stats.proposals,
        }
        s.moves.merge(&stats.moves);
        let e = &mut s.eval;
        e.testcases_run += stats.eval.testcases_run;
        e.evaluations += stats.eval.evaluations;
        e.early_terminations += stats.eval.early_terminations;
        e.instructions_skipped += stats.eval.instructions_skipped;
        e.checkpoint_restores += stats.eval.checkpoint_restores;
    }

    fn on_search_end(&self, _target: usize, _result: &StokeResult) {
        self.state.lock().expect("probe lock").end = Some(Instant::now());
    }
}

/// Validator-layer counters of the traced runs.
#[derive(Default, Clone, Copy)]
pub struct ValidatorCounters {
    pub queries: u64,
    pub proven: u64,
    pub refuted: u64,
    pub counterexamples: u64,
    pub terms: u64,
}

/// The symbolic stage of the default cascade, rebuilt on the public
/// `Validator::prove` so each query's time and `ValidationStats.terms` can
/// be recorded. It does exactly what `stoke::Symbolic` does — count the
/// query, add the counterexample to the suite, report the verdict — and
/// the exact-repeat check between traced and untraced passes holds it to
/// that: any difference would change the returned rewrites.
pub struct RecordingSymbolic {
    tracer: Arc<Tracer>,
    label: Arc<Mutex<String>>,
    counters: Mutex<ValidatorCounters>,
}

impl Verifier for RecordingSymbolic {
    fn name(&self) -> &'static str {
        "symbolic"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        ctx.stats.validations += 1;
        let t0 = Instant::now();
        let (result, stats) =
            Validator::new(ctx.suite.live_out.clone()).prove(&ctx.spec.program, candidate);
        let t1 = Instant::now();
        let label = self.label.lock().expect("label lock").clone();
        self.tracer.record("symbolic", &label, t0, t1);
        let mut c = self.counters.lock().expect("counter lock");
        c.queries += 1;
        c.terms += stats.terms as u64;
        let verdict = match result {
            EquivResult::Equivalent => {
                c.proven += 1;
                Verdict::proven()
            }
            EquivResult::NotEquivalent(cex) => {
                c.refuted += 1;
                c.counterexamples += 1;
                ctx.stats.counterexamples += 1;
                ctx.suite.add_counterexample(ctx.spec, &cex);
                Verdict::refuted_with(vec![*cex])
            }
        };
        ctx.observer.on_validation(
            ctx.target,
            if verdict.accepted() {
                ValidationVerdict::Proven
            } else {
                ValidationVerdict::Refuted
            },
        );
        verdict
    }
}

/// `Cascade::new(RecordingSymbolic)` with a span around each whole
/// verification; the span's self time is the cascade's test stage.
pub struct TimedCascade {
    cascade: Cascade<RecordingSymbolic>,
    verdicts: Mutex<BTreeMap<&'static str, u64>>,
}

impl TimedCascade {
    pub fn new(tracer: Arc<Tracer>, label: Arc<Mutex<String>>) -> TimedCascade {
        TimedCascade {
            cascade: Cascade::new(RecordingSymbolic {
                tracer,
                label,
                counters: Mutex::new(ValidatorCounters::default()),
            }),
            verdicts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn counters(&self) -> ValidatorCounters {
        *self.cascade.inner().counters.lock().expect("counter lock")
    }

    fn tracer(&self) -> &Tracer {
        &self.cascade.inner().tracer
    }
}

impl Verifier for TimedCascade {
    fn name(&self) -> &'static str {
        "cascade"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        let t0 = Instant::now();
        let verdict = self.cascade.verify(candidate, ctx);
        let t1 = Instant::now();
        let label = self
            .cascade
            .inner()
            .label
            .lock()
            .expect("label lock")
            .clone();
        self.tracer().record("verify", &label, t0, t1);
        let kind = match verdict.status {
            VerifyStatus::Proven => "proven",
            VerifyStatus::TestsPassed => "tests_passed",
            VerifyStatus::Refuted => "refuted",
        };
        *self
            .verdicts
            .lock()
            .expect("verdict lock")
            .entry(kind)
            .or_default() += 1;
        verdict
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// No observer, default verifier: the end-to-end measurement.
    Plain,
    /// Benchmark observer and timed verifier: the per-layer breakdown.
    Traced,
    /// The program's own metrics registry and a ring trace sink.
    Obs,
}

struct KernelRun {
    wall: Duration,
    result: StokeResult,
}

/// Everything the traced arm records for one pass.
#[derive(Default)]
struct LayerTotals {
    synth_proposals: u64,
    opt_proposals: u64,
    moves: MoveStats,
    eval: EvalStats,
    candidates: u64,
    coverage_min: f64,
}

/// One kernel's search under one arm; the traced arm records its spans
/// and adds its counts to `layers`.
fn run_kernel(
    p: &Prepared,
    config: &stoke::Config,
    arm: Arm,
    tracer: &Arc<Tracer>,
    layers: &mut LayerTotals,
    verifier: &Arc<TimedCascade>,
    label: &Arc<Mutex<String>>,
) -> KernelRun {
    let probe = Arc::new(Probe::default());
    let session = match arm {
        Arm::Plain => Session::new(config.clone()),
        Arm::Traced => {
            *label.lock().expect("label lock") = p.kernel.name.to_string();
            Session::new(config.clone())
                .with_observer(probe.clone())
                .with_verifier(verifier.clone())
        }
        Arm::Obs => Session::new(config.clone())
            .with_metrics(Arc::new(MetricsRegistry::new()))
            .with_trace(Arc::new(RingSink::new(4096))),
    };
    let t0 = Instant::now();
    let result = session
        .run(&p.spec)
        .expect("fixed-budget searches of non-empty kernels complete");
    let t1 = Instant::now();
    if arm == Arm::Traced {
        let name = p.kernel.name;
        tracer.record("kernel", name, t0, t1);
        let s = probe.state.lock().expect("probe lock");
        let mark = |phase| s.marks.iter().find(|(p, _)| *p == phase).map(|(_, t)| *t);
        let stages = [
            ("testgen", Phase::Testcases, mark(Phase::Synthesis)),
            ("synth", Phase::Synthesis, mark(Phase::Optimization)),
            ("opt", Phase::Optimization, mark(Phase::Validation)),
            ("validation", Phase::Validation, s.end),
        ];
        let mut covered = Duration::ZERO;
        for (span, phase, end) in stages {
            if let (Some(start), Some(end)) = (mark(phase), end) {
                tracer.record(span, name, start, end);
                covered += end - start;
            }
        }
        let coverage = covered.as_secs_f64() / (t1 - t0).as_secs_f64();
        layers.coverage_min = layers.coverage_min.min(coverage);
        layers.synth_proposals += s.synth_proposals;
        layers.opt_proposals += s.opt_proposals;
        layers.moves.merge(&s.moves);
        let e = &mut layers.eval;
        e.testcases_run += s.eval.testcases_run;
        e.evaluations += s.eval.evaluations;
        e.early_terminations += s.eval.early_terminations;
        e.instructions_skipped += s.eval.instructions_skipped;
        e.checkpoint_restores += s.eval.checkpoint_restores;
        layers.candidates += s.candidates;
    }
    KernelRun {
        wall: t1 - t0,
        result,
    }
}

/// One line per kernel of everything that must repeat exactly: proposal
/// counts, cycles, verification and the rewrite itself.
fn digest(kernels: &[Prepared], runs: &[KernelRun]) -> Vec<String> {
    kernels
        .iter()
        .zip(runs)
        .map(|(p, r)| {
            let s = &r.result.stats;
            format!(
                "{} synth={} opt={} validations={} cex={} cycles={}/{} {:?} rewrite={:016x}",
                p.kernel.name,
                s.synthesis_proposals,
                s.optimization_proposals,
                s.validations,
                s.counterexamples,
                r.result.target_cycles,
                r.result.rewrite_cycles,
                r.result.verification,
                stoke_serve::fnv1a64(r.result.rewrite.to_string().as_bytes())
            )
        })
        .collect()
}

pub fn run(opts: &Options, long: bool, report: &mut Report) -> Metrics {
    let names: &[&str] = if long { &LONG } else { &SHORT };
    let iterations = if long {
        LONG_ITERATIONS
    } else {
        SHORT_ITERATIONS
    };
    let config = sweep_config(iterations, 1);
    // Set-up: compile the kernels, then one small search of the first so
    // code and allocator warm-up happen before the measured passes.
    let (kernels, setup) = crate::common::timed_setup(|| {
        let kernels = prepare(names);
        Session::new(sweep_config(WARM_UP_ITERATIONS, 1))
            .run(&kernels[0].spec)
            .expect("the warm-up search completes");
        kernels
    });

    let tracer = Arc::new(Tracer::new());
    let label = Arc::new(Mutex::new(String::new()));
    let verifier = Arc::new(TimedCascade::new(tracer.clone(), label.clone()));
    let arms: Vec<Arm> = match (opts.trace, long) {
        (false, _) => vec![Arm::Plain],
        (true, false) => vec![Arm::Plain, Arm::Traced],
        (true, true) => vec![Arm::Plain, Arm::Traced, Arm::Obs],
    };

    let start = Instant::now();
    let mut passes: Vec<(Arm, Vec<KernelRun>)> = Vec::new();
    let mut pass_rss: Vec<f64> = Vec::new();
    let mut traced_layers: Vec<LayerTotals> = Vec::new();
    // The box-speed factor of each pass (see `Speed`), from probes taken
    // between the round's kernel runs.
    let mut pass_speed: Vec<f64> = Vec::new();
    let mut round = Duration::ZERO;
    // Whole rounds until the next would overrun; at least two passes so the
    // exact-repeat check has something to compare. A round is one pass per
    // arm, interleaved kernel by kernel (in rotating arm order) so the arms
    // are compared at the same moments of a noisy box.
    while passes.len() < 2 || start.elapsed() + round <= opts.seconds {
        let r0 = Instant::now();
        let mut layers = LayerTotals {
            coverage_min: 1.0,
            ..LayerTotals::default()
        };
        let mut by_arm: Vec<Vec<KernelRun>> = arms.iter().map(|_| Vec::new()).collect();
        let mut speed = Speed::default();
        reset_peak_rss();
        for (i, p) in kernels.iter().enumerate() {
            for k in 0..arms.len() {
                speed.sample();
                let a = (i + k) % arms.len();
                let run = run_kernel(p, &config, arms[a], &tracer, &mut layers, &verifier, &label);
                by_arm[a].push(run);
            }
        }
        pass_rss.push(peak_rss_mib());
        if arms.contains(&Arm::Traced) {
            traced_layers.push(layers);
        }
        passes.extend(arms.iter().copied().zip(by_arm));
        pass_speed.extend(arms.iter().map(|_| speed.factor()));
        round = r0.elapsed();
    }

    // Exact repeat: every pass, traced or not, returns the same rewrites
    // after the same number of proposals.
    let first = digest(&kernels, &passes[0].1);
    for (i, (_, runs)) in passes.iter().enumerate().skip(1) {
        if digest(&kernels, runs) != first {
            report.drift(&format!("pass {i} differs from pass 0"));
        }
    }
    report.repeat_digest(&first);

    // Output checks: every distinct returned rewrite, on fresh inputs. A
    // wrong rewrite the program returned as `TestsOnly` (not proven) lowers
    // `ok_frac`; any other wrong rewrite is a failed operation.
    let mut checked: BTreeMap<String, Result<(), String>> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut not_ok = 0u64;
    for (_, runs) in &passes {
        for (p, r) in kernels.iter().zip(runs) {
            attempted += 1;
            let key = format!("{}\n{}", p.kernel.name, r.result.rewrite);
            let verdict = checked.entry(key).or_insert_with(|| {
                let seed = opts.seed ^ stoke_serve::fnv1a64(p.kernel.name.as_bytes());
                check::check_program(
                    &p.kernel,
                    &p.spec,
                    &r.result.rewrite,
                    check::CHECK_CASES,
                    seed,
                )
                .map_err(|why| format!("{:?} rewrite, {why}", r.result.verification))
            });
            if let Err(why) = verdict {
                not_ok += 1;
                if r.result.verification == Verification::TestsOnly {
                    report.unproven_wrong_output(p.kernel.name, why);
                } else {
                    failed += 1;
                    report.wrong_output(p.kernel.name, why);
                }
            }
        }
    }

    let plain: Vec<&Vec<KernelRun>> = passes
        .iter()
        .filter(|(a, _)| *a == Arm::Plain)
        .map(|(_, r)| r)
        .collect();
    // A pass's wall time: the sum of its kernels' `Session::run` times,
    // scaled by the pass's box-speed factor.
    let raw_pass_wall = |arm: Arm| -> Vec<(f64, f64)> {
        passes
            .iter()
            .zip(&pass_speed)
            .filter(|((a, _), _)| *a == arm)
            .map(|((_, runs), f)| (runs.iter().map(|r| r.wall.as_secs_f64()).sum(), *f))
            .collect()
    };
    let pass_wall =
        |arm: Arm| -> Vec<f64> { raw_pass_wall(arm).iter().map(|(w, f)| w * f).collect() };
    let wall_s = median(&pass_wall(Arm::Plain));
    let (raw, factors): (Vec<f64>, Vec<f64>) = raw_pass_wall(Arm::Plain).into_iter().unzip();
    report.note(&speed_note(&raw, &factors));
    let op_ms: Vec<f64> = plain
        .iter()
        .flat_map(|runs| runs.iter().map(|r| ms(r.wall)))
        .collect();
    let (tail_ms, tail_pct, tail_n) = tail(&op_ms);
    let results: Vec<&StokeResult> = plain[0].iter().map(|r| &r.result).collect();
    let n = results.len() as u64;
    let speedups: Vec<f64> = results.iter().map(|r| r.speedup()).collect();
    let improved = results
        .iter()
        .filter(|r| r.rewrite_cycles < r.target_cycles)
        .count() as u64;
    let proven = results
        .iter()
        .filter(|r| r.verification == Verification::Proven)
        .count() as u64;

    let mut m = Metrics::default();
    m.set("setup_s", setup.median_s, "s");
    report.note(&setup.note());
    m.set("wall_s", wall_s, "s");
    m.set("peak_rss_mb", median(&pass_rss), "MiB");
    m.set("op_ms.p50", median(&op_ms), "ms");
    m.set("op_ms.tail", tail_ms, "ms");
    m.set("ok_frac", 1.0 - ratio(not_ok, attempted), "share");
    m.set("speedup_geomean", geomean(&speedups), "ratio");
    m.set("improved_frac", ratio(improved, n), "share");
    m.set("proven_frac", ratio(proven, n), "share");
    m.set("failed_frac", ratio(not_ok, attempted), "share");
    report.tail_note("op_ms.tail", tail_pct, tail_n);

    // Per-kernel rows: medians over the untraced passes, next to the
    // traced passes when there are any.
    let traced: Vec<&Vec<KernelRun>> = passes
        .iter()
        .filter(|(a, _)| *a == Arm::Traced)
        .map(|(_, r)| r)
        .collect();
    for (i, p) in kernels.iter().enumerate() {
        let r = &plain[0][i].result;
        let plain_ms = median(
            &plain
                .iter()
                .map(|runs| ms(runs[i].wall))
                .collect::<Vec<_>>(),
        );
        let traced_ms = median(
            &traced
                .iter()
                .map(|runs| ms(runs[i].wall))
                .collect::<Vec<_>>(),
        );
        let check = checked
            .get(&format!("{}\n{}", p.kernel.name, r.rewrite))
            .map_or("n/a".to_string(), |c| match c {
                Ok(()) => "ok".to_string(),
                Err(why) => format!("WRONG: {why}"),
            });
        // ns/proposal of the kernel's phases in the traced passes.
        let ns_per_proposal = opts.trace.then(|| {
            let spans = tracer.spans();
            let phase_ns = |name: &str| -> f64 {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.label == p.kernel.name)
                    .map(|s| (s.end_ns - s.start_ns) as f64)
                    .sum::<f64>()
                    / traced.len().max(1) as f64
            };
            (
                phase_ns("synth") / r.stats.synthesis_proposals.max(1) as f64,
                phase_ns("opt") / r.stats.optimization_proposals.max(1) as f64,
            )
        });
        report.row(
            "kernels",
            &[
                "kernel",
                "insns",
                "speedup",
                "verification",
                "cycles target/rewrite",
                "proposals",
                "wall ms",
                "traced wall ms",
                "ns/proposal synth/opt",
                "output check",
            ],
            vec![
                p.kernel.name.to_string(),
                p.spec.program.len().to_string(),
                format!("{:.3}", r.speedup()),
                format!("{:?}", r.verification),
                format!("{}/{}", r.target_cycles, r.rewrite_cycles),
                r.stats.total_proposals().to_string(),
                format!("{plain_ms:.1}"),
                opts.trace
                    .then_some(traced_ms)
                    .map_or("-".to_string(), |t| format!("{t:.1}")),
                ns_per_proposal.map_or("-".to_string(), |(s, o)| format!("{s:.0}/{o:.0}")),
                check,
            ],
        );
    }

    if opts.trace {
        let spans = tracer.spans();
        let tree = SpanTree::new(&spans);
        let traced_passes = traced_layers.len().max(1) as f64;
        let l = &traced_layers[0];
        let per_pass = |name: &str| span_ms(&spans, name) / traced_passes;
        let synth_ms = per_pass("synth");
        let opt_ms = per_pass("opt");
        let accept = |kind: Option<MoveKind>| match kind {
            Some(k) => ratio(l.moves.accepted(k), l.moves.proposed(k)),
            None => ratio(l.moves.total_accepted(), l.moves.total_proposed()),
        };
        m.set("testgen.ms", per_pass("testgen"), "ms");
        m.set("synth.ms", synth_ms, "ms");
        m.set("opt.ms", opt_ms, "ms");
        m.set("synth.proposals", l.synth_proposals as f64, "count");
        m.set("opt.proposals", l.opt_proposals as f64, "count");
        m.set(
            "synth.ns_per_proposal",
            synth_ms * 1e6 / l.synth_proposals.max(1) as f64,
            "ns",
        );
        m.set(
            "opt.ns_per_proposal",
            opt_ms * 1e6 / l.opt_proposals.max(1) as f64,
            "ns",
        );
        m.set("mcmc.accept_frac", accept(None), "share");
        for (kind, name) in [
            (MoveKind::Opcode, "opcode"),
            (MoveKind::Operand, "operand"),
            (MoveKind::Swap, "swap"),
            (MoveKind::Instruction, "instruction"),
        ] {
            m.set(
                &format!("mcmc.accept_frac.{name}"),
                accept(Some(kind)),
                "share",
            );
        }
        let succeeded = results
            .iter()
            .filter(|r| r.stats.synthesis_succeeded)
            .count() as u64;
        m.set("synth.success_frac", ratio(succeeded, n), "share");
        m.set("cost.evals", l.eval.evaluations as f64, "count");
        m.set(
            "cost.testcases_per_eval",
            ratio(l.eval.testcases_run, l.eval.evaluations),
            "count",
        );
        m.set(
            "cost.early_exit_frac",
            ratio(l.eval.early_terminations, l.eval.evaluations),
            "share",
        );
        m.set(
            "emu.instructions_skipped",
            l.eval.instructions_skipped as f64,
            "count",
        );
        m.set(
            "emu.checkpoint_restores",
            l.eval.checkpoint_restores as f64,
            "count",
        );
        m.set(
            "validate.tests_ms",
            tree.self_ms(&spans, "verify") / traced_passes,
            "ms",
        );
        m.set(
            "validate.symbolic_ms",
            tree.self_ms(&spans, "symbolic") / traced_passes,
            "ms",
        );
        let c = verifier.counters();
        let per = |v: u64| v as f64 / traced_passes;
        m.set("validate.queries", per(c.queries), "count");
        m.set("validate.proven", per(c.proven), "count");
        m.set("validate.refuted", per(c.refuted), "count");
        let verdicts = verifier.verdicts.lock().expect("verdict lock").clone();
        m.set(
            "validate.undecided",
            per(*verdicts.get("tests_passed").unwrap_or(&0)),
            "count",
        );
        m.set("validate.counterexamples", per(c.counterexamples), "count");
        m.set("validate.terms", per(c.terms), "count");
        m.set(
            "rerank.ms",
            tree.self_ms(&spans, "validation") / traced_passes,
            "ms",
        );
        m.set("rerank.candidates", l.candidates as f64, "count");
        let coverage = traced_layers
            .iter()
            .map(|l| l.coverage_min)
            .fold(1.0, f64::min);
        m.set("trace.phase_coverage_min", coverage, "share");
        if coverage < 0.95 {
            report.check_failed(&format!(
                "phase spans cover only {:.1}% of some kernel's wall time",
                coverage * 100.0
            ));
        }
        let plain_wall = wall_s;
        let traced_wall = median(&pass_wall(Arm::Traced));
        m.set(
            "trace.overhead_frac",
            traced_wall / plain_wall - 1.0,
            "share",
        );
        if long {
            m.set(
                "obs.overhead_frac",
                median(&pass_wall(Arm::Obs)) / plain_wall - 1.0,
                "share",
            );
        }
        report.workload_walls(plain_wall, Some(traced_wall));
        if let Err(e) = tracer.write(&report.trace_path()) {
            report.note(&format!("could not write spans: {e}"));
        }
    } else {
        report.workload_walls(wall_s, None);
    }
    report.counts(attempted, failed);
    m
}
