//! The `serve-mix` workload: a closed loop of two clients against a
//! two-worker `Service`, mixing first submissions of the 28-kernel corpus
//! (cache writes), register-renamed resubmissions (cache reads) and
//! near-miss submissions (warm starts).
//!
//! Each kernel is submitted once, resubmitted once under a seeded register
//! renaming, and, where one qualifies, once as a near miss. That is the
//! smallest mix with all three kinds of submission; the share of hits it
//! gives is a choice, not observed traffic.
//!
//! The mix runs in waves with a barrier between them (see [`build`]). A
//! job's disposition may depend only on what earlier waves put in the
//! cache, so the two workers racing inside a wave cannot change it and
//! dispositions repeat exactly from pass to pass.

use crate::check;
use crate::common::{
    median, ms, peak_rss_mib, ratio, reset_peak_rss, speed_note, tail, timed_setup, Metrics, Speed,
    SplitMix, Tracer,
};
use crate::report::Report;
use crate::Options;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stoke::{InputSpec, StokeResult, TargetSpec, Verification};
use stoke_bench::{spec_for, sweep_config};
use stoke_serve::{
    edit_distance_within, CacheConfig, CacheKey, Disposition, JobOutcome, PipelineFingerprint,
    RewriteCache, ServeConfig, Service, ServiceStats,
};
use stoke_workloads::Kernel;
use stoke_x86::canon::{pinned_registers, Renaming};
use stoke_x86::flow::{self, LocSet};
use stoke_x86::Gpr;

/// Search budget of a cold job (optimization iterations; synthesis gets a
/// quarter).
const SERVE_ITERATIONS: u64 = 4_000;
/// Speed probes before each wave. A pass has only seven waves, and the
/// median of seven probes moves more than the pass times do.
const PROBES_PER_WAVE: usize = 4;
/// Client threads of the closed loop, and service workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// The service's warm-start distance (its default).
const WARM_DISTANCE: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Write,
    Read,
    Near,
}

struct Job {
    kind: Kind,
    kernel: usize,
    label: String,
    spec: TargetSpec,
    key: CacheKey,
}

struct Mix {
    kernels: Vec<Kernel>,
    jobs: Vec<Job>,
    waves: Vec<Vec<usize>>,
}

/// A register permutation fixing the program's pinned registers.
fn permutation(spec: &TargetSpec, rng: &mut SplitMix) -> Renaming {
    let pinned = pinned_registers(&spec.program);
    let free: Vec<usize> = (0..16).filter(|&i| !pinned[i]).collect();
    let mut images = free.clone();
    for i in (1..images.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        images.swap(i, j);
    }
    let mut map = Gpr::ALL;
    for (slot, img) in free.iter().zip(&images) {
        map[*slot] = Gpr::from_index(*img);
    }
    Renaming::from_map(map).expect("a permutation of the free registers")
}

/// `spec` submitted through other registers.
fn renamed(spec: &TargetSpec, pi: &Renaming) -> TargetSpec {
    let inputs = spec
        .inputs
        .iter()
        .map(|i| InputSpec {
            reg: pi.apply_gpr(i.reg),
            ..i.clone()
        })
        .collect();
    let outputs = spec.live_out.gprs.iter().map(|g| pi.apply_gpr(*g));
    TargetSpec::new(
        pi.apply_program(&spec.program),
        inputs,
        LocSet::from_gprs(outputs),
    )
}

/// `spec` with one dead copy appended — the first input copied into the
/// first register the program leaves alone: one instruction away from the
/// original in the canonical key, and computing the same function.
fn near_miss(spec: &TargetSpec) -> Option<TargetSpec> {
    let mut used = LocSet::new();
    for instr in spec.program.iter() {
        used.union_with(&flow::uses(instr));
        used.union_with(&flow::defs(instr).0);
    }
    let dst = [Gpr::R10, Gpr::R11, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15]
        .into_iter()
        .find(|g| !used.gprs.contains(g) && !spec.live_out.gprs.contains(g))?;
    let src = spec.inputs.first()?.reg;
    let program = format!("{}\nmovq {}, {}", spec.program, src.name64(), dst.name64())
        .parse()
        .ok()?;
    Some(TargetSpec::new(
        program,
        spec.inputs.clone(),
        spec.live_out.clone(),
    ))
}

fn fingerprint(config: &stoke::Config) -> PipelineFingerprint {
    PipelineFingerprint::new(config, config.verifier.name())
}

/// Whether two keys could meet in `nearest`: same interface, within the
/// warm-start distance.
fn near(a: &CacheKey, b: &CacheKey) -> bool {
    a.interface() == b.interface()
        && edit_distance_within(a.program_lines(), b.program_lines(), WARM_DISTANCE).is_some()
}

/// Build the mix. The seed draws the register renamings; which jobs run,
/// and in which wave, does not depend on it.
///
/// Waves, in order:
/// 1. first submissions of half A of the corpus;
/// 2. first submissions of half B (they may warm-start from half A);
/// 3. first submissions within reach of both halves, one per wave;
/// 4. one renamed resubmission of every kernel;
/// 5. the near misses.
///
/// The halves are chosen so no two first submissions in one wave are
/// within warm-start reach of each other, and a near miss is kept only if
/// exactly one first submission, and no other near miss, is within reach
/// of it: its warm start can then come from one entry only.
fn build(seed: u64, config: &stoke::Config) -> Mix {
    let kernels = stoke_workloads::all_kernels();
    let fp = fingerprint(config);
    let mut rng = SplitMix::new(seed);
    let mut jobs: Vec<Job> = Vec::new();
    let mut push = |kind, kernel: usize, label: String, spec: TargetSpec| {
        let key = CacheKey::for_spec(&spec, fp);
        jobs.push(Job {
            kind,
            kernel,
            label,
            spec,
            key,
        });
    };
    for (ki, k) in kernels.iter().enumerate() {
        let spec = spec_for(k);
        let pi = permutation(&spec, &mut rng);
        push(
            Kind::Read,
            ki,
            format!("{}/renamed", k.name),
            renamed(&spec, &pi),
        );
        if let Some(near_spec) = near_miss(&spec) {
            push(Kind::Near, ki, format!("{}/near", k.name), near_spec);
        }
        push(Kind::Write, ki, format!("{}/first", k.name), spec);
    }
    let of =
        |kind: Kind| -> Vec<usize> { (0..jobs.len()).filter(|&j| jobs[j].kind == kind).collect() };
    let writes = of(Kind::Write);
    let mut nears: Vec<usize> = Vec::new();
    for j in of(Kind::Near) {
        let close: Vec<usize> = writes
            .iter()
            .filter(|&&w| near(&jobs[j].key, &jobs[w].key))
            .map(|&w| jobs[w].kernel)
            .collect();
        let clash = nears.iter().any(|&o| near(&jobs[j].key, &jobs[o].key));
        if close == [jobs[j].kernel] && !clash {
            nears.push(j);
        }
    }
    let mut halves: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut alone = Vec::new();
    for (ki, &w) in writes.iter().enumerate() {
        let fits = |h: &Vec<usize>| h.iter().all(|&o| !near(&jobs[w].key, &jobs[o].key));
        match [ki % 2, 1 - ki % 2].into_iter().find(|&h| fits(&halves[h])) {
            Some(h) => halves[h].push(w),
            None => alone.push(vec![w]),
        }
    }
    let mut waves = vec![halves[0].clone(), halves[1].clone()];
    waves.extend(alone);
    waves.push(of(Kind::Read));
    waves.push(nears);
    let used: Vec<usize> = waves.iter().flatten().copied().collect();
    let keep: Vec<bool> = (0..jobs.len()).map(|j| used.contains(&j)).collect();
    // Drop the near misses that did not qualify, renumbering the waves.
    let mut renumber = vec![usize::MAX; jobs.len()];
    let mut kept = Vec::new();
    for (j, job) in jobs.into_iter().enumerate() {
        if keep[j] {
            renumber[j] = kept.len();
            kept.push(job);
        }
    }
    let waves = waves
        .into_iter()
        .map(|w| w.into_iter().map(|j| renumber[j]).collect())
        .collect();
    Mix {
        kernels,
        jobs: kept,
        waves,
    }
}

struct JobRun {
    latency: Duration,
    outcome: JobOutcome,
}

fn start_service(config: &stoke::Config) -> Service {
    let mut sc = ServeConfig::new(config.clone());
    sc.workers = WORKERS;
    sc.cache = CacheConfig::default();
    sc.warm_start_max_distance = WARM_DISTANCE;
    Service::start(sc).expect("a service without a cache file starts")
}

/// What one pass of the mix leaves to analyse.
struct Pass {
    traced: bool,
    runs: Vec<JobRun>,
    wall: Duration,
    /// Box-speed factor from probes taken between the waves, while the
    /// service is idle.
    speed: f64,
    stats: ServiceStats,
    peak_rss_mib: f64,
}

/// One pass: a fresh service, every wave in order.
fn run_pass(mix: &Mix, config: &stoke::Config, tracer: Option<&Tracer>) -> Pass {
    let service = start_service(config);
    reset_peak_rss();
    let runs: Mutex<Vec<Option<JobRun>>> = Mutex::new((0..mix.jobs.len()).map(|_| None).collect());
    let mut speed = Speed::default();
    let mut wall = Duration::ZERO;
    for wave in &mix.waves {
        for _ in 0..PROBES_PER_WAVE {
            speed.sample_parallel(WORKERS);
        }
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&j) = wave.get(i) else { break };
                    let job = &mix.jobs[j];
                    let s0 = Instant::now();
                    let id = service.submit(job.spec.clone());
                    let outcome = service.wait(id).expect("jobs are never cancelled");
                    let s1 = Instant::now();
                    if let Some(t) = tracer {
                        t.record("job", &job.label, s0, s1);
                    }
                    runs.lock().expect("runs lock")[j] = Some(JobRun {
                        latency: s1 - s0,
                        outcome,
                    });
                });
            }
        });
        wall += t0.elapsed();
    }
    let peak_rss_mib = peak_rss_mib();
    let stats = service.shutdown().expect("no cache file to save");
    let runs = runs
        .into_inner()
        .expect("runs lock")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect();
    Pass {
        traced: tracer.is_some(),
        runs,
        wall,
        speed: speed.factor(),
        stats,
        peak_rss_mib,
    }
}

fn disposition(d: Disposition) -> &'static str {
    match d {
        Disposition::ColdSearch => "cold",
        Disposition::CacheHit => "hit",
        Disposition::WarmStart { .. } => "warm",
    }
}

fn digest(mix: &Mix, runs: &[JobRun]) -> Vec<String> {
    mix.jobs
        .iter()
        .zip(runs)
        .map(|(job, r)| {
            let o = &r.outcome;
            let what = match &o.result {
                Ok(res) => format!(
                    "{:?} cycles={}/{} proposals={} rewrite={:016x}",
                    res.verification,
                    res.target_cycles,
                    res.rewrite_cycles,
                    res.stats.total_proposals(),
                    stoke_serve::fnv1a64(res.rewrite.to_string().as_bytes())
                ),
                Err(e) => format!("error {e}"),
            };
            format!("{} {:?} {}", job.label, o.disposition, what)
        })
        .collect()
}

/// Time the cache operations of the mix on a standalone `RewriteCache`:
/// inserts of the first submissions' rewrites, lookups of the renamed
/// resubmissions, nearest-entry scans for the near misses.
fn replay_cache(mix: &Mix, runs: &[JobRun]) -> (f64, f64, f64) {
    let mut cache = RewriteCache::new(CacheConfig::default());
    let (mut insert, mut lookup, mut nearest) = (Vec::new(), Vec::new(), Vec::new());
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    for (job, r) in mix.jobs.iter().zip(runs) {
        if let (Kind::Write, Ok(res)) = (job.kind, &r.outcome.result) {
            let t0 = Instant::now();
            cache.insert(&job.key, &res.rewrite, res.verification.clone());
            insert.push(us(t0));
        }
    }
    for job in &mix.jobs {
        let t0 = Instant::now();
        match job.kind {
            Kind::Read => {
                std::hint::black_box(cache.lookup(&job.key));
                lookup.push(us(t0));
            }
            Kind::Near => {
                std::hint::black_box(cache.nearest(&job.key, WARM_DISTANCE));
                nearest.push(us(t0));
            }
            Kind::Write => {}
        }
    }
    (median(&lookup), median(&nearest), median(&insert))
}

pub fn run(opts: &Options, report: &mut Report) -> Metrics {
    let config = sweep_config(SERVE_ITERATIONS, 1);
    let (mix, setup) = timed_setup(|| {
        let mix = build(opts.seed, &config);
        start_service(&config)
            .shutdown()
            .expect("no cache file to save");
        mix
    });
    let tracer = Tracer::new();
    let arms: Vec<bool> = if opts.trace {
        vec![false, true]
    } else {
        vec![false]
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut round = Duration::ZERO;
    while passes.len() < 2 || start.elapsed() + round <= opts.seconds {
        let r0 = Instant::now();
        for &traced in &arms {
            passes.push(run_pass(&mix, &config, traced.then_some(&tracer)));
        }
        round = r0.elapsed();
    }

    let first = digest(&mix, &passes[0].runs);
    for (i, p) in passes.iter().enumerate().skip(1) {
        if digest(&mix, &p.runs) != first {
            report.drift(&format!(
                "pass {i} dispositions or results differ from pass 0"
            ));
        }
    }
    report.repeat_digest(&first);

    // Output checks: every job's returned rewrite, through the job's own
    // registers, against the kernel's reference. A wrong rewrite returned
    // as `TestsOnly` (not proven) lowers `ok_frac`; a failed job or any
    // other wrong rewrite is a failed operation.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut not_ok = 0u64;
    let mut checked: BTreeMap<String, Result<(), String>> = BTreeMap::new();
    for pass in &passes {
        for (job, r) in mix.jobs.iter().zip(&pass.runs) {
            attempted += 1;
            let verdict = match &r.outcome.result {
                Err(e) => Err(format!("job failed: {e}")),
                Ok(res) => checked
                    .entry(format!("{}\n{}", job.label, res.rewrite))
                    .or_insert_with(|| {
                        let seed = opts.seed ^ stoke_serve::fnv1a64(job.label.as_bytes());
                        let kernel = &mix.kernels[job.kernel];
                        check::check_program(
                            kernel,
                            &job.spec,
                            &res.rewrite,
                            check::CHECK_CASES,
                            seed,
                        )
                        .map_err(|why| format!("{:?} rewrite, {why}", res.verification))
                    })
                    .clone(),
            };
            if let Err(why) = verdict {
                not_ok += 1;
                let unproven = matches!(
                    &r.outcome.result,
                    Ok(res) if res.verification == Verification::TestsOnly
                );
                if unproven {
                    report.unproven_wrong_output(&job.label, &why);
                } else {
                    failed += 1;
                    report.wrong_output(&job.label, &why);
                }
            }
        }
    }

    // Each pass replicates the whole mix, so latency percentiles are taken
    // per pass and their median over the passes is reported.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let latencies = |p: &Pass, hit: Option<bool>| -> Vec<f64> {
        p.runs
            .iter()
            .filter(|r| hit.is_none_or(|h| (r.outcome.disposition == Disposition::CacheHit) == h))
            .map(|r| ms(r.latency))
            .collect()
    };
    let over_passes =
        |f: &dyn Fn(&Pass) -> f64| median(&plain.iter().map(|p| f(p)).collect::<Vec<_>>());
    let wall_s = over_passes(&|p| p.wall.as_secs_f64() * p.speed);
    report.note(&speed_note(
        &plain
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
        &plain.iter().map(|p| p.speed).collect::<Vec<_>>(),
    ));
    let jobs = mix.jobs.len() as u64;
    let stats = plain[0].stats;
    let mut m = Metrics::default();
    m.set("setup_s", setup.median_s, "s");
    report.note(&setup.note());
    m.set("wall_s", wall_s, "s");
    m.set(
        "op_ms.p50",
        over_passes(&|p| median(&latencies(p, None))),
        "ms",
    );
    m.set(
        "op_ms.tail",
        over_passes(&|p| tail(&latencies(p, None)).0),
        "ms",
    );
    m.set("peak_rss_mb", over_passes(&|p| p.peak_rss_mib), "MiB");
    m.set("ok_frac", 1.0 - ratio(not_ok, attempted), "share");
    m.set("failed_frac", ratio(not_ok, attempted), "share");
    m.set("jobs_per_s", jobs as f64 / wall_s, "1/s");
    m.set(
        "hit_us.p50",
        1e3 * over_passes(&|p| median(&latencies(p, Some(true)))),
        "us",
    );
    m.set(
        "hit_us.tail",
        1e3 * over_passes(&|p| tail(&latencies(p, Some(true))).0),
        "us",
    );
    m.set(
        "miss_ms.p50",
        over_passes(&|p| median(&latencies(p, Some(false)))),
        "ms",
    );
    m.set("hit_ratio", ratio(stats.cache_hits, jobs), "share");
    let speedups: Vec<f64> = plain[0]
        .runs
        .iter()
        .filter_map(|r| r.outcome.result.as_ref().ok().map(StokeResult::speedup))
        .collect();
    m.set(
        "speedup_geomean",
        crate::common::geomean(&speedups),
        "ratio",
    );
    let (_, op_pct, op_n) = tail(&latencies(plain[0], None));
    let (_, hit_pct, hit_n) = tail(&latencies(plain[0], Some(true)));
    report.tail_note("op_ms.tail", op_pct, op_n);
    report.tail_note("hit_us.tail", hit_pct, hit_n);
    report.note(&format!(
        "{} jobs per pass in {} waves, {} untraced passes: {} hits, {} warm starts, {} cold searches",
        jobs,
        mix.waves.len(),
        plain.len(),
        stats.cache_hits,
        stats.warm_starts,
        stats.cold_searches
    ));

    // Per-kernel rows: the disposition and latency of each of its jobs.
    let kinds = ["first", "renamed", "near"];
    let header: Vec<&str> = ["kernel", "speedup", "verification"]
        .into_iter()
        .chain(kinds)
        .collect();
    for k in &mix.kernels {
        let mut cells = vec![k.name.to_string(), "-".to_string(), "-".to_string()];
        for kind in &kinds {
            let label = format!("{}/{kind}", k.name);
            let found = mix.jobs.iter().position(|j| j.label == label);
            cells.push(found.map_or("-".to_string(), |j| {
                let r = &plain[0].runs[j];
                format!(
                    "{} {:.2} ms",
                    disposition(r.outcome.disposition),
                    ms(r.latency)
                )
            }));
            if let (Some(j), "first") = (found, *kind) {
                if let Ok(res) = &plain[0].runs[j].outcome.result {
                    cells[1] = format!("{:.3}", res.speedup());
                    cells[2] = format!("{:?}", res.verification);
                }
            }
        }
        report.row("kernels", &header, cells);
    }

    if opts.trace {
        let traced_wall = median(
            &passes
                .iter()
                .filter(|p| p.traced)
                .map(|p| p.wall.as_secs_f64() * p.speed)
                .collect::<Vec<_>>(),
        );
        m.set("trace.overhead_frac", traced_wall / wall_s - 1.0, "share");
        let fp = fingerprint(&config);
        let key_us: Vec<f64> = mix
            .jobs
            .iter()
            .map(|job| {
                let t0 = Instant::now();
                std::hint::black_box(CacheKey::for_spec(&job.spec, fp));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        m.set("serve.key_us", median(&key_us), "us");
        let queue_us = |p: &Pass| -> Vec<f64> {
            p.runs
                .iter()
                .map(|r| r.outcome.queue_time.as_secs_f64() * 1e6)
                .collect()
        };
        m.set(
            "serve.queue_us.p50",
            over_passes(&|p| median(&queue_us(p))),
            "us",
        );
        m.set(
            "serve.queue_us.tail",
            over_passes(&|p| tail(&queue_us(p)).0),
            "us",
        );
        let hit_run_us = |p: &Pass| -> Vec<f64> {
            p.runs
                .iter()
                .filter(|r| r.outcome.disposition == Disposition::CacheHit)
                .map(|r| r.outcome.run_time.as_secs_f64() * 1e6)
                .collect()
        };
        m.set(
            "serve.hit_run_us.p50",
            over_passes(&|p| median(&hit_run_us(p))),
            "us",
        );
        let (lookup, nearest, insert) = replay_cache(&mix, &passes[0].runs);
        m.set("serve.cache.lookup_us", lookup, "us");
        m.set("serve.cache.nearest_us", nearest, "us");
        m.set("serve.cache.insert_us", insert, "us");
        m.set("serve.hits", stats.cache_hits as f64, "count");
        m.set("serve.warm_starts", stats.warm_starts as f64, "count");
        m.set("serve.cold_searches", stats.cold_searches as f64, "count");
        report.workload_walls(wall_s, Some(traced_wall));
        if let Err(e) = tracer.write(&report.trace_path()) {
            report.note(&format!("could not write spans: {e}"));
        }
    } else {
        report.workload_walls(wall_s, None);
    }
    report.counts(attempted, failed);
    m
}
