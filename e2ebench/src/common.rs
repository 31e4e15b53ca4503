//! Shared pieces: order statistics, the box-speed probe, the in-memory
//! span recorder, peak memory, a seeded generator and the metric table
//! printed at the end.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator for the benchmark's own choices
/// (mutant constants, register permutations, near-miss edits). Kept apart
/// from the program's generator so inputs depend on `--seed` alone.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x0e2e_be9c_5eed_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples above it. Returns `(value, percentile, samples)`;
/// with ten samples or fewer there is no such percentile and the maximum
/// is reported as p100.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let k = n - 10;
    (v[k - 1], 100.0 * k as f64 / n as f64, n)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak resident set (`VmHWM`) to the current resident set, so
/// the next [`peak_rss_mib`] covers only what runs after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What one speed probe takes on a box of the reference speed, in
/// seconds. Times scaled by [`Speed::factor`] read as if they had run on
/// such a box.
pub const PROBE_NOMINAL_S: f64 = 0.006;

/// One speed probe: a fixed amount of allocation-heavy work, 20,000
/// inserts of small heap vectors into a `BTreeMap` under pseudo-random
/// keys, then dropping the map. It is written in this crate so no change
/// to the program can move it. Returns its time in seconds.
///
/// The program's set-ups and searches allocate as they go, and on a shared
/// box they slow down with the allocator and the memory system more than
/// with the core. Across eight processes spread over a few minutes of a
/// 2-vCPU Xeon VM, scaling by this probe left a coefficient of variation
/// of 0.06-0.09 in the search and set-up times, against 0.10-0.14 with
/// an arithmetic loop over a 256 KiB buffer and 0.17-0.21 unscaled.
pub fn probe_once() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, vec![i; (x % 16) as usize + 1]);
    }
    std::hint::black_box(&map);
    drop(map);
    t0.elapsed().as_secs_f64()
}

/// The box's speed while a stretch of work ran, from probes taken between
/// its operations.
///
/// On a shared VM the box's speed drifts by 20-30% over minutes, for the
/// same code and inputs, and all workloads slow down together. Scaling a
/// time by how long the probe took at the same moments removes most of
/// that drift. The probe is the benchmark's own code, so a change to the
/// program still moves the scaled time in full.
#[derive(Default, Clone)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    pub fn sample(&mut self) {
        self.samples.push(probe_once());
    }

    /// Probe on `threads` threads at once and record their mean time: the
    /// box's speed for work that keeps that many threads busy. A single
    /// thread does not see a core the box has lost to its neighbours.
    pub fn sample_parallel(&mut self, threads: usize) {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let probes: Vec<_> = (0..threads).map(|_| scope.spawn(probe_once)).collect();
            probes
                .into_iter()
                .map(|p| p.join().expect("probe thread"))
                .collect()
        });
        self.samples
            .push(times.iter().sum::<f64>() / times.len() as f64);
    }

    pub fn push(&mut self, probe_s: f64) {
        self.samples.push(probe_s);
    }

    /// `PROBE_NOMINAL_S` over the median probe time: below 1 on a box
    /// slower than the reference. 1 when nothing was probed.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            PROBE_NOMINAL_S / median(&self.samples)
        }
    }
}

/// A report line on how the box's speed scaled `wall_s`: the raw pass
/// times and their factors.
pub fn speed_note(raw_s: &[f64], factors: &[f64]) -> String {
    let list = |v: &[f64], digits: usize| {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "wall_s is the median pass time scaled to the reference box speed; \
         raw pass times {} s, box-speed factors {}",
        list(raw_s, 3),
        list(factors, 3)
    )
}

/// Set-ups per run: at least this many, and more until they have taken
/// [`SETUP_MIN_SECONDS`] in all. `setup_s` is their median, so a set-up of
/// a few milliseconds is sampled often enough to stand above the box's
/// scheduling noise.
pub const SETUP_MIN_REPEATS: usize = 9;
pub const SETUP_MIN_SECONDS: f64 = 1.5;
pub const SETUP_MAX_REPEATS: usize = 400;

/// The set-up times of one run.
pub struct SetupTimes {
    /// Median set-up time, scaled to the reference box speed.
    pub median_s: f64,
    pub raw_median_s: f64,
    pub factor: f64,
    pub repeats: usize,
    pub min_s: f64,
    pub max_s: f64,
}

impl SetupTimes {
    pub fn note(&self) -> String {
        format!(
            "setup_s is the median of {} set-ups ({:.4} s to {:.4} s, median {:.4} s), \
             scaled by the box-speed factor {:.3}",
            self.repeats, self.min_s, self.max_s, self.raw_median_s, self.factor
        )
    }
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPEATS`]), with a speed probe
/// before each, and return the last product with the set-up times.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, SetupTimes) {
    let mut secs: Vec<f64> = Vec::new();
    let mut speed = Speed::default();
    let mut last = None;
    while secs.len() < SETUP_MIN_REPEATS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECONDS && secs.len() < SETUP_MAX_REPEATS)
    {
        // Drop the previous product first, so each set-up starts from the
        // same state (a validate set-up's pool kills its workers on drop).
        drop(last.take());
        speed.sample();
        let t0 = Instant::now();
        let value = std::hint::black_box(setup());
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    let times = SetupTimes {
        median_s: median(&secs) * speed.factor(),
        raw_median_s: median(&secs),
        factor: speed.factor(),
        repeats: secs.len(),
        min_s: secs.iter().copied().fold(f64::INFINITY, f64::min),
        max_s: secs.iter().copied().fold(0.0, f64::max),
    };
    (last.expect("at least one set-up"), times)
}

/// One recorded span: a named interval on one thread. Parents are
/// recovered by interval containment on the same thread when the spans
/// are analysed, so recording needs no span stack.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans held in memory for the whole run and written out at the end.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_TAG: u64 = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(&self, name: &'static str, label: &str, start: Instant, end: Instant) {
        let span = Span {
            name,
            label: label.to_string(),
            thread: THREAD_TAG.with(|t| *t),
            start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.t0).as_nanos() as u64,
        };
        self.spans.lock().expect("span lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Write the spans as JSON lines, each with its parent index and self
    /// time, to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans();
        let tree = SpanTree::new(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = tree.parent[i].map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.label,
                s.start_ns,
                s.end_ns,
                tree.self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Parent links and self times of a span set. A span's parent is the
/// shortest span on the same thread that contains it; its self time is
/// its duration minus the time its direct children cover.
pub struct SpanTree {
    pub parent: Vec<Option<usize>>,
    pub self_ns: Vec<u64>,
}

impl SpanTree {
    pub fn new(spans: &[Span]) -> SpanTree {
        let mut order: Vec<usize> = (0..spans.len()).collect();
        // Outer spans first: by thread, start, then longest first.
        order.sort_by_key(|&i| {
            let s = &spans[i];
            (s.thread, s.start_ns, std::cmp::Reverse(s.end_ns))
        });
        let mut parent = vec![None; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            let s = &spans[i];
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                if t.thread == s.thread && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                let d = spans[i].end_ns - spans[i].start_ns;
                self_ns[*p] = self_ns[*p].saturating_sub(d);
            }
        }
        SpanTree { parent, self_ns }
    }

    /// Total self time, in milliseconds, of the spans named `name`.
    pub fn self_ms(&self, spans: &[Span], name: &str) -> f64 {
        spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum()
    }
}

/// Total duration, in milliseconds, of the spans named `name`.
pub fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// The metrics of one run, in the order they are printed.
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.values
            .insert(name.to_string(), (value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |(v, _)| *v)
    }

    /// The metrics named in `names`, as a JSON object body. A metric a
    /// workload did not produce is reported as 0 in its declared unit.
    pub fn json(&self, names: &[(&str, &str)]) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(*name).map_or(0.0, |(v, _)| *v);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
