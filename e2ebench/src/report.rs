//! The human-readable report: per-kernel or per-query rows, the
//! workload's row, and every problem found (wrong outputs, drift between
//! runs, failed benchmark checks). Printed to stdout and written under `e2ebench/out/`.

use crate::common::{json_num, json_str, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    out_dir: PathBuf,
    /// Whether what must repeat exactly depends on the seed (it does for
    /// workloads whose inputs are drawn from it, not for the searches).
    digest_per_seed: bool,
    tables: Vec<Table>,
    notes: Vec<String>,
    pub drifts: Vec<String>,
    pub wrong: Vec<String>,
    /// Wrong outputs the program returned as `TestsOnly`: it did not
    /// claim them proven. They lower `ok_frac` but leave `correct` alone.
    pub unproven_wrong: Vec<String>,
    /// Checks of the benchmark itself that failed (for example, phase
    /// spans that do not cover a kernel's wall time).
    pub failed_checks: Vec<String>,
    walls: (f64, Option<f64>),
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool, digest_per_seed: bool) -> Report {
        let out_dir = PathBuf::from("e2ebench/out");
        let _ = std::fs::create_dir_all(&out_dir);
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            out_dir,
            digest_per_seed,
            tables: Vec::new(),
            notes: Vec::new(),
            drifts: Vec::new(),
            wrong: Vec::new(),
            unproven_wrong: Vec::new(),
            failed_checks: Vec::new(),
            walls: (0.0, None),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed))
    }

    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    pub fn drift(&mut self, what: &str) {
        self.drifts.push(what.to_string());
    }

    pub fn check_failed(&mut self, what: &str) {
        self.failed_checks.push(what.to_string());
    }

    /// Whether nothing the program claimed correct was wrong, and nothing
    /// drifted or failed a check. Wrong `TestsOnly` outputs do not count
    /// here (see [`Report::unproven_wrong_output`]).
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.drifts.is_empty() && self.failed_checks.is_empty()
    }

    pub fn wrong_output(&mut self, name: &str, why: &str) {
        let line = format!("{name}: {why}");
        if !self.wrong.contains(&line) {
            self.wrong.push(line);
        }
    }

    /// A wrong output the program labelled `TestsOnly`, that is, passed
    /// its test cases but not proven.
    pub fn unproven_wrong_output(&mut self, name: &str, why: &str) {
        let line = format!("{name}: {why}");
        if !self.unproven_wrong.contains(&line) {
            self.unproven_wrong.push(line);
        }
    }

    pub fn tail_note(&mut self, metric: &str, percentile: f64, samples: usize) {
        self.notes
            .push(format!("{metric} is p{percentile:.1} of {samples} samples"));
    }

    pub fn workload_walls(&mut self, plain: f64, traced: Option<f64>) {
        self.walls = (plain, traced);
    }

    pub fn counts(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
    }

    pub fn totals(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    pub fn row(&mut self, table: &str, header: &[&str], cells: Vec<String>) {
        if !self.tables.iter().any(|t| t.name == table) {
            self.tables.push(Table {
                name: table.to_string(),
                header: header.iter().map(|h| h.to_string()).collect(),
                rows: Vec::new(),
            });
        }
        let t = self
            .tables
            .iter_mut()
            .find(|t| t.name == table)
            .expect("table just ensured");
        t.rows.push(cells);
    }

    /// Compare what must repeat exactly with the record an earlier run of
    /// the same build left (or leave one).
    pub fn repeat_digest(&mut self, lines: &[String]) {
        let build = std::env::current_exe()
            .and_then(std::fs::read)
            .map(|bytes| stoke_serve::fnv1a64(&bytes))
            .unwrap_or(0);
        let name = if self.digest_per_seed {
            format!("digest-{}-{build:016x}-{}.txt", self.workload, self.seed)
        } else {
            format!("digest-{}-{build:016x}.txt", self.workload)
        };
        let path = self.out_dir.join(name);
        let text = lines.join("\n") + "\n";
        match std::fs::read_to_string(&path) {
            Ok(earlier) if earlier != text => {
                let first = earlier
                    .lines()
                    .zip(text.lines())
                    .find(|(a, b)| a != b)
                    .map_or("line count".to_string(), |(a, b)| {
                        format!("`{a}` then `{b}`")
                    });
                self.drift(&format!("differs from an earlier run: {first}"));
            }
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::write(&path, text);
            }
        }
    }

    fn platform() -> String {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|c| {
                c.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown CPU".to_string());
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!("{cpu}, {cpus} CPUs available")
    }

    /// Render the report, print it, and write it with a JSON summary of
    /// the workload row.
    pub fn finish(&self, m: &Metrics, names: &[(&str, &str)]) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "# e2ebench: {}\n", self.workload);
        let _ = writeln!(md, "- Platform: {}", Self::platform());
        let _ = writeln!(md, "- Seed: {}, traced run: {}", self.seed, self.trace);
        for note in &self.notes {
            let _ = writeln!(md, "- {note}");
        }
        for t in &self.tables {
            let _ = writeln!(md, "\n### {}\n", t.name);
            let _ = writeln!(md, "| {} |", t.header.join(" | "));
            let _ = writeln!(md, "|{}", "---|".repeat(t.header.len()));
            for r in &t.rows {
                let _ = writeln!(md, "| {} |", r.join(" | "));
            }
        }
        let _ = writeln!(md, "\n### workload\n");
        let _ = writeln!(md, "| metric | value | unit |\n|---|---|---|");
        for (name, unit) in names {
            if let Some((v, _)) = m.values.get(*name) {
                let _ = writeln!(md, "| {name} | {v:.6} | {unit} |");
            }
        }
        let (plain, traced) = self.walls;
        let _ = writeln!(
            md,
            "\nwall time untraced {plain:.3} s, traced {}; {} operations, {} failed; \
             {} distinct wrong unproven outputs",
            traced.map_or("not run".to_string(), |t| format!(
                "{t:.3} s ({:+.1}%)",
                (t / plain - 1.0) * 100.0
            )),
            self.attempted,
            self.failed,
            self.unproven_wrong.len()
        );
        for w in &self.wrong {
            let _ = writeln!(md, "\nWRONG OUTPUT {w}");
        }
        for w in &self.unproven_wrong {
            let _ = writeln!(md, "\nWRONG UNPROVEN OUTPUT {w}");
        }
        for d in &self.drifts {
            let _ = writeln!(md, "\nDRIFT {d}");
        }
        for c in &self.failed_checks {
            let _ = writeln!(md, "\nCHECK FAILED {c}");
        }
        let suffix = if self.trace { "-traced" } else { "" };
        let _ = std::fs::write(
            self.out_dir.join(format!("{}{suffix}.md", self.workload)),
            &md,
        );
        let fields: Vec<String> = m
            .values
            .iter()
            .map(|(k, (v, u))| format!("{}: [{}, {}]", json_str(k), json_num(*v), json_str(u)))
            .collect();
        let summary = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"wall_s\": {}, \"traced_wall_s\": {}, \"attempted\": {}, \"failed\": {}, \"drift\": {}, \"metrics\": {{{}}}}}\n",
            json_str(&self.workload),
            self.seed,
            self.trace,
            json_num(plain),
            traced.map_or("null".to_string(), json_num),
            self.attempted,
            self.failed,
            self.drifts.len(),
            fields.join(", ")
        );
        let _ = std::fs::write(
            self.out_dir.join(format!("{}{suffix}.json", self.workload)),
            summary,
        );
        md
    }
}
