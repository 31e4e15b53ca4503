//! The `validate` workload: the default `Cascade` verifier on fixed queries
//! with known answers, with no search in front. Each query runs in a
//! worker process the benchmark kills at the per-query limit (the
//! validator has no cancellation of its own).

use crate::check;
use crate::common::{
    median, ms, peak_rss_mib, probe_once, ratio, speed_note, tail, timed_setup, Metrics, Speed,
    SplitMix,
};
use crate::report::Report;
use crate::search::TimedCascade;
use crate::Options;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stoke::{
    generate_testcases, Cascade, NullObserver, SearchStats, TargetSpec, Verifier, VerifyContext,
    VerifyStatus,
};
use stoke_bench::{spec_for, sweep_config};
use stoke_workloads::{Kernel, ParamKind};
use stoke_x86::Program;

/// Wall-clock limit per query. The slowest query that gets a verdict
/// today (Montgomery against its paper rewrite) takes about 3 s.
pub const QUERY_LIMIT: Duration = Duration::from_secs(5);
/// Worker processes (the box has two cores).
const WORKERS: usize = 2;

/// Fresh inputs on which the reference confirms a baseline's or paper
/// rewrite's known answer.
const KNOWN_ANSWER_CASES: usize = 256;

pub struct Query {
    pub name: String,
    pub kernel: usize,
    pub candidate: Program,
    /// For a mutant, the first-input value at which it differs.
    pub magic: Option<u64>,
}

pub struct Queries {
    pub kernels: Vec<Kernel>,
    pub specs: Vec<TargetSpec>,
    pub queries: Vec<Query>,
}

/// A copy of `base` that differs from the kernel only when its first
/// input equals `magic`: it flips bit 0 of the result (or adds 1 to the
/// first stored element). Random test inputs miss that corner, so the
/// cascade's test stage passes it and the symbolic stage must find it.
fn mutant(kernel: &Kernel, base: &Program, magic: u64) -> Program {
    let compare = match kernel.params[0] {
        ParamKind::Value32 => format!("cmpl {magic}, edi"),
        ParamKind::Value64 | ParamKind::Pointer(_) => format!("cmpq {magic}, rdi"),
    };
    let apply = if kernel.ir.ret.is_some() {
        "xorq r11, rax"
    } else {
        "addl r11d, (rsi)"
    };
    format!("{base}\nmovl 0, r11d\n{compare}\nsete r11b\n{apply}")
        .parse()
        .expect("mutant suffix parses")
}

/// Build the queries: per kernel its `-O2` and `-O3` baselines, its paper
/// rewrite where one exists, and one mutant. They do not depend on the
/// seed: each mutant is seeded by its kernel's name, because a solver's
/// time moves with the constant it has to find, and fixed queries keep
/// verdict times comparable from run to run.
pub fn build() -> Queries {
    let kernels = stoke_workloads::all_kernels();
    let mut specs = Vec::new();
    let mut queries = Vec::new();
    for (ki, kernel) in kernels.iter().enumerate() {
        let mut candidates = vec![("o2", kernel.baseline_o2()), ("o3", kernel.baseline_o3())];
        if let Some(text) = kernel.paper_rewrite {
            candidates.push(("paper", text.parse().expect("paper rewrites parse")));
        }
        for (kind, candidate) in candidates {
            queries.push(Query {
                name: format!("{}/{kind}", kernel.name),
                kernel: ki,
                candidate,
                magic: None,
            });
        }
        let mut rng = SplitMix::new(stoke_serve::fnv1a64(kernel.name.as_bytes()));
        let magic = match kernel.params[0] {
            ParamKind::Pointer(_) => 0x4000_0000 + (rng.below(0x1_0000) << 4),
            _ => 0x4000_0000 | rng.below(0x3fff_ffff),
        };
        queries.push(Query {
            name: format!("{}/mutant", kernel.name),
            kernel: ki,
            candidate: mutant(kernel, &kernel.baseline_o3(), magic),
            magic: Some(magic),
        });
        specs.push(spec_for(kernel));
    }
    Queries {
        kernels,
        specs,
        queries,
    }
}

/// The known answer of every query, from the reference interpreter on
/// inputs drawn from `seed`: a baseline or paper rewrite is equivalent
/// unless the reference shows a difference, and each mutant's difference
/// is confirmed at its magic input.
fn known_answers(q: &Queries, seed: u64) -> Vec<bool> {
    q.queries
        .iter()
        .map(|query| {
            let kernel = &q.kernels[query.kernel];
            let spec = &q.specs[query.kernel];
            let query_seed = seed ^ stoke_serve::fnv1a64(query.name.as_bytes());
            match query.magic {
                None => check::check_program(
                    kernel,
                    spec,
                    &query.candidate,
                    KNOWN_ANSWER_CASES,
                    query_seed,
                )
                .is_ok(),
                Some(magic) => {
                    let template = &generate_testcases(spec, 1, query_seed).cases[0].input;
                    let at_magic = check::input_with_first(spec, template, magic);
                    assert!(
                        check::mismatch(kernel, spec, &query.candidate, &at_magic).is_some(),
                        "the reference confirms the {} mutant",
                        kernel.name
                    );
                    false
                }
            }
        })
        .collect()
}

/// One query's answer as reported by a worker.
#[derive(Clone, Debug)]
pub struct Answer {
    pub status: String,
    pub verify_ns: u64,
    pub symbolic_ns: u64,
    pub terms: u64,
    pub counterexamples: u64,
    /// For a refutation with a counterexample: whether the counterexample
    /// shows a difference on the reference interpreter.
    pub replayed: bool,
    pub rss_mib: f64,
    /// A speed probe taken in the worker just before the query (see
    /// `Speed`), in seconds.
    pub probe_s: f64,
}

/// One verification of one query, in a fresh context.
struct Once {
    status: &'static str,
    verify_ns: u64,
    symbolic_ns: u64,
    terms: u64,
    counterexamples: usize,
    replayed: bool,
}

fn verify_once(q: &Queries, query: &Query, traced: bool) -> Once {
    // The searches' test-case count and seed; no search runs here.
    let config = sweep_config(0, 1);
    let spec = &q.specs[query.kernel];
    let kernel = &q.kernels[query.kernel];
    let mut suite = generate_testcases(spec, config.num_testcases, config.seed);
    let template = suite.cases[0].input.clone();
    let mut stats = SearchStats::default();
    let observer = NullObserver;
    let mut ctx = VerifyContext {
        spec,
        suite: &mut suite,
        config: &config,
        stats: &mut stats,
        observer: &observer,
        target: 0,
    };
    let tracer = Arc::new(crate::common::Tracer::new());
    let timed = TimedCascade::new(tracer.clone(), Arc::new(Mutex::new(query.name.clone())));
    let t0 = Instant::now();
    let verdict = if traced {
        timed.verify(&query.candidate, &mut ctx)
    } else {
        Cascade::<stoke::Symbolic>::default().verify(&query.candidate, &mut ctx)
    };
    let verify_ns = t0.elapsed().as_nanos() as u64;
    let symbolic_ns = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "symbolic")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let replayed = verdict.counterexamples.first().is_some_and(|cex| {
        let input = check::counterexample_input(spec, &template, &cex.gprs);
        check::mismatch(kernel, spec, &query.candidate, &input).is_some()
    });
    Once {
        status: match verdict.status {
            VerifyStatus::Proven => "proven",
            VerifyStatus::TestsPassed => "tests_passed",
            VerifyStatus::Refuted => "refuted",
        },
        verify_ns,
        symbolic_ns,
        terms: timed.counters().terms,
        counterexamples: verdict.counterexamples.len(),
        replayed,
    }
}

/// Worker side: read `<query index> <traced 0|1>` lines from stdin, take a
/// speed probe, verify the query once, and answer on stdout.
pub fn worker() {
    let q = build();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|_| out.flush())
        .expect("worker stdout");
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut fields = line.split_whitespace();
        let (Some(Ok(idx)), Some(traced)) = (fields.next().map(str::parse::<usize>), fields.next())
        else {
            break;
        };
        let traced = traced == "1";
        let probe_s = probe_once();
        let r = verify_once(&q, &q.queries[idx], traced);
        writeln!(
            out,
            "{idx} {} {} {} {} {} {} {} {probe_s}",
            r.status,
            r.verify_ns,
            r.symbolic_ns,
            r.terms,
            r.counterexamples,
            u8::from(r.replayed),
            peak_rss_mib()
        )
        .and_then(|_| out.flush())
        .expect("worker stdout");
    }
}

/// A running worker process with a reader thread forwarding its lines.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    fn spawn() -> std::io::Result<Worker> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let w = Worker {
            child,
            stdin,
            lines,
            reader: Some(reader),
        };
        match w.lines.recv_timeout(Duration::from_secs(60)) {
            Ok(l) if l == "ready" => Ok(w),
            _ => Err(std::io::Error::other("worker did not start")),
        }
    }

    /// Ask one query and wait for the answer up to the limit.
    fn ask(&mut self, idx: usize, traced: bool) -> Outcome {
        if writeln!(self.stdin, "{idx} {}", u8::from(traced))
            .and_then(|_| self.stdin.flush())
            .is_err()
        {
            return Outcome::Error("worker closed its input".to_string());
        }
        let line = match self.lines.recv_timeout(QUERY_LIMIT) {
            Ok(line) => line,
            Err(RecvTimeoutError::Timeout) => return Outcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => {
                return Outcome::Error("worker died".to_string())
            }
        };
        parse_answer(&line, idx).map_or_else(
            || Outcome::Error(format!("bad worker reply: {line}")),
            Outcome::Answered,
        )
    }
}

impl Drop for Worker {
    /// Kill the worker and wait for it and its reader thread to end.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn parse_answer(line: &str, idx: usize) -> Option<Answer> {
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.len() != 9 || f[0].parse::<usize>().ok()? != idx {
        return None;
    }
    Some(Answer {
        status: f[1].to_string(),
        verify_ns: f[2].parse().ok()?,
        symbolic_ns: f[3].parse().ok()?,
        terms: f[4].parse().ok()?,
        counterexamples: f[5].parse().ok()?,
        replayed: f[6] == "1",
        rss_mib: f[7].parse().ok()?,
        probe_s: f[8].parse().ok()?,
    })
}

pub enum Outcome {
    Answered(Answer),
    /// No verdict within the limit.
    TimedOut,
    /// The worker failed (died or could not start).
    Error(String),
}

pub struct QueryRun {
    pub wall: Duration,
    pub outcome: Outcome,
    /// The traced arm's answer, asked right after the untraced one on the
    /// same worker (traced runs only, and only if that one was answered).
    pub traced: Option<Outcome>,
}

/// Run every query once across the worker pool. A worker that misses the
/// limit, or fails, is killed and replaced. A query marked in `stopped`
/// (it got no verdict within the limit in the run's first pass) is not
/// asked again: it stays without a verdict.
fn run_pass(
    opts: &Options,
    n: usize,
    pool: &mut [Option<Worker>],
    stopped: &[bool],
) -> Vec<QueryRun> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<QueryRun>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for slot in pool.iter_mut() {
            let next = &next;
            let results = &results;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                if stopped[idx] {
                    results.lock().expect("results lock")[idx] = Some(QueryRun {
                        wall: Duration::ZERO,
                        outcome: Outcome::TimedOut,
                        traced: None,
                    });
                    continue;
                }
                let mut ask = |traced: bool| {
                    if slot.is_none() {
                        *slot = Worker::spawn().ok();
                    }
                    let outcome = match slot.as_mut() {
                        None => Outcome::Error("worker failed to start".to_string()),
                        Some(w) => w.ask(idx, traced),
                    };
                    if !matches!(outcome, Outcome::Answered(_)) {
                        *slot = None;
                    }
                    outcome
                };
                let t0 = Instant::now();
                let outcome = ask(false);
                let wall = t0.elapsed();
                let traced =
                    (opts.trace && matches!(outcome, Outcome::Answered(_))).then(|| ask(true));
                results.lock().expect("results lock")[idx] = Some(QueryRun {
                    wall,
                    outcome,
                    traced,
                });
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every query ran"))
        .collect()
}

fn start_pool() -> Vec<Option<Worker>> {
    (0..WORKERS).map(|_| Worker::spawn().ok()).collect()
}

/// How one query's outcome compares with its known answer.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Judgement {
    Correct,
    Undecided,
    Wrong,
    Error,
}

fn judge(equivalent: bool, outcome: &Outcome) -> Judgement {
    match outcome {
        Outcome::Error(_) => Judgement::Error,
        Outcome::TimedOut => Judgement::Undecided,
        Outcome::Answered(a) => match (a.status.as_str(), equivalent) {
            ("proven", true) => Judgement::Correct,
            ("refuted", false) if a.counterexamples == 0 || a.replayed => Judgement::Correct,
            ("tests_passed", _) => Judgement::Undecided,
            _ => Judgement::Wrong,
        },
    }
}

pub fn run(opts: &Options, report: &mut Report) -> Metrics {
    // Set-up: build the queries and bring up the worker pool. Pools of the
    // earlier repetitions are dropped, which kills their workers.
    let ((q, equivalent, mut pool), setup) = timed_setup(|| {
        let q = build();
        let equivalent = known_answers(&q, opts.seed);
        (q, equivalent, start_pool())
    });
    let n = q.queries.len();

    // Passes until the next would overrun. The queries stopped at the limit
    // in the first pass are not asked again: waiting on them would take
    // most of each pass's time, and leave room for one pass per run.
    let start = Instant::now();
    let mut passes: Vec<(Vec<QueryRun>, f64)> = Vec::new();
    let mut stopped = vec![false; n];
    // How long the next pass should take: the last pass's time, or after
    // the first, its answered queries' time spread over the workers.
    let mut next_s = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + next_s <= opts.seconds.as_secs_f64()
    {
        let p0 = Instant::now();
        let runs = run_pass(opts, n, &mut pool, &stopped);
        next_s = p0.elapsed().as_secs_f64();
        if passes.is_empty() {
            stopped = runs
                .iter()
                .map(|r| matches!(r.outcome, Outcome::TimedOut))
                .collect();
            let asked: f64 = runs
                .iter()
                .filter(|r| !matches!(r.outcome, Outcome::TimedOut))
                .map(|r| r.wall.as_secs_f64())
                .sum();
            next_s = asked / WORKERS as f64;
        }
        passes.push((runs, p0.elapsed().as_secs_f64()));
    }
    drop(pool);

    // Exact repeat: every pass gives every query the same judgement, and
    // the traced arm the same verdict as the untraced one.
    let judgements = |runs: &[QueryRun]| -> Vec<Judgement> {
        equivalent
            .iter()
            .zip(runs)
            .map(|(e, r)| judge(*e, &r.outcome))
            .collect()
    };
    let first = judgements(&passes[0].0);
    for (i, (runs, _)) in passes.iter().enumerate().skip(1) {
        if judgements(runs) != first {
            report.drift(&format!("pass {i} verdicts differ from pass 0"));
        }
    }
    report.repeat_digest(
        &q.queries
            .iter()
            .zip(&first)
            .map(|(q, j)| format!("{} {:?}", q.name, j))
            .collect::<Vec<_>>(),
    );

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut not_ok = 0u64;
    let mut rss = 0.0f64;
    let mut verdict_ms = Vec::new();
    for (runs, _) in &passes {
        for ((query, run), &equivalent) in q.queries.iter().zip(runs).zip(&equivalent) {
            attempted += 1;
            let j = judge(equivalent, &run.outcome);
            match &run.outcome {
                Outcome::Error(e) => report.wrong_output(&query.name, e),
                Outcome::Answered(a) => {
                    rss = rss.max(a.rss_mib);
                    // Time per verdict: a query stopped at the limit has
                    // none (it counts against `ok_frac`, and its wait is
                    // reported as `limit_wait_s`).
                    verdict_ms.push(a.verify_ns as f64 / 1e6);
                    if j == Judgement::Wrong {
                        report.wrong_output(&query.name, "verdict contradicts the known answer");
                    }
                    if let Some(Outcome::Answered(t)) = &run.traced {
                        if t.status != a.status {
                            report.drift(&format!("{}: traced verdict differs", query.name));
                        }
                    }
                }
                Outcome::TimedOut => {}
            }
            if matches!(j, Judgement::Wrong | Judgement::Error) {
                failed += 1;
            }
            if j != Judgement::Correct {
                not_ok += 1;
            }
        }
    }
    let decided = first
        .iter()
        .filter(|j| matches!(j, Judgement::Correct | Judgement::Wrong))
        .count() as u64;
    let (tail_ms, tail_pct, tail_n) = tail(&verdict_ms);
    let mut m = Metrics::default();
    m.set("setup_s", setup.median_s, "s");
    report.note(&setup.note());
    // `wall_s` is the time the verifier spent on the queries it answered,
    // each verified once, scaled by the pass's box-speed factor (from the
    // probes the workers took before each query). The waits on queries
    // stopped at the limit are a fixed cost no verifier change moves until
    // a query crosses the limit, so they are reported apart.
    let answers = |runs: &[QueryRun]| -> Vec<Answer> {
        runs.iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Answered(a) => Some(a.clone()),
                _ => None,
            })
            .collect()
    };
    let raw: Vec<f64> = passes
        .iter()
        .map(|(runs, _)| answers(runs).iter().map(|a| a.verify_ns as f64 / 1e9).sum())
        .collect();
    let factors: Vec<f64> = passes
        .iter()
        .map(|(runs, _)| {
            let mut speed = Speed::default();
            for a in answers(runs) {
                speed.push(a.probe_s);
            }
            speed.factor()
        })
        .collect();
    let wall_s = median(
        &raw.iter()
            .zip(&factors)
            .map(|(w, f)| w * f)
            .collect::<Vec<_>>(),
    );
    report.note(&speed_note(&raw, &factors));
    // Only the first pass waits on the limit (later passes skip those
    // queries).
    let limit_wait_s: f64 = passes[0]
        .0
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::TimedOut))
        .map(|r| r.wall.as_secs_f64())
        .sum();
    m.set("wall_s", wall_s, "s");
    m.set("limit_wait_s", limit_wait_s, "s");
    report.note(&format!(
        "{} passes on {WORKERS} workers, the first of {:.1} s wall time, the later ones \
         {:.1} s (median); in the first pass, queries stopped at the {} s limit took \
         {limit_wait_s:.1} s of worker time, and later passes do not ask them again",
        passes.len(),
        passes[0].1,
        median(&passes.iter().skip(1).map(|p| p.1).collect::<Vec<_>>()),
        QUERY_LIMIT.as_secs()
    ));
    m.set("op_ms.p50", median(&verdict_ms), "ms");
    m.set("op_ms.tail", tail_ms, "ms");
    m.set("peak_rss_mb", rss, "MiB");
    m.set("ok_frac", 1.0 - ratio(not_ok, attempted), "share");
    m.set("failed_frac", ratio(not_ok, attempted), "share");
    m.set("decided_frac", ratio(decided, n as u64), "share");
    m.set("verdict_ms.p50", median(&verdict_ms), "ms");
    m.set("verdict_ms.tail", tail_ms, "ms");
    report.tail_note("verdict_ms.tail", tail_pct, tail_n);

    // Per-query rows from the first pass, with the traced time.
    let runs = &passes[0].0;
    let answer = |o: &Outcome| match o {
        Outcome::Answered(a) => Some(a.clone()),
        _ => None,
    };
    for (i, (query, run)) in q.queries.iter().zip(runs).enumerate() {
        let (status, ms_) = match &run.outcome {
            Outcome::Answered(a) => (a.status.clone(), a.verify_ns as f64 / 1e6),
            Outcome::TimedOut => ("no verdict".to_string(), ms(run.wall)),
            Outcome::Error(e) => (format!("error: {e}"), ms(run.wall)),
        };
        let traced_ms = run
            .traced
            .as_ref()
            .and_then(answer)
            .map_or("-".to_string(), |t| {
                format!("{:.2}", t.verify_ns as f64 / 1e6)
            });
        report.row(
            "queries",
            &[
                "query",
                "known answer",
                "verdict",
                "judgement",
                "verdict ms",
                "traced ms",
            ],
            vec![
                query.name.clone(),
                if equivalent[i] {
                    "equivalent"
                } else {
                    "not equivalent"
                }
                .to_string(),
                status,
                format!("{:?}", first[i]),
                format!("{ms_:.2}"),
                traced_ms,
            ],
        );
    }

    if opts.trace {
        // Per-layer figures from the traced answers of the first pass; a
        // query without a verdict counts as undecided.
        let mut tests_ms = 0.0;
        let mut symbolic_ms = 0.0;
        let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
        let mut counts = [0u64; 6];
        for run in runs {
            counts[0] += 1;
            let plain = answer(&run.outcome);
            match run.traced.as_ref().and_then(answer) {
                Some(t) => {
                    tests_ms += (t.verify_ns - t.symbolic_ns) as f64 / 1e6;
                    symbolic_ms += t.symbolic_ns as f64 / 1e6;
                    match t.status.as_str() {
                        "proven" => counts[1] += 1,
                        "refuted" => counts[2] += 1,
                        _ => counts[3] += 1,
                    }
                    counts[4] += t.counterexamples;
                    counts[5] += t.terms;
                    if let Some(p) = plain {
                        plain_ns += p.verify_ns;
                        traced_ns += t.verify_ns;
                    }
                }
                None => counts[3] += 1,
            }
        }
        m.set("validate.tests_ms", tests_ms, "ms");
        m.set("validate.symbolic_ms", symbolic_ms, "ms");
        for (i, name) in [
            "queries",
            "proven",
            "refuted",
            "undecided",
            "counterexamples",
            "terms",
        ]
        .iter()
        .enumerate()
        {
            m.set(&format!("validate.{name}"), counts[i] as f64, "count");
        }
        m.set(
            "trace.overhead_frac",
            ratio(traced_ns, plain_ns) - 1.0,
            "share",
        );
        report.note(
            "traced against untraced: the summed verdict times of the queries both arms answered",
        );
        report.workload_walls(plain_ns as f64 / 1e9, Some(traced_ns as f64 / 1e9));
    } else {
        report.workload_walls(m.get("wall_s"), None);
    }
    report.counts(attempted, failed);
    m
}
