//! The decode-once / execute-many evaluation backend.
//!
//! The MCMC inner loop evaluates one candidate rewrite on *every* test
//! case of a suite, and the interpreter ([`run_instrs`](crate::run_instrs))
//! repeats per-instruction work on each case that does not depend on the
//! machine state at all — most importantly the def/use analysis behind the
//! undefined-read fault counter of Equation 11, which allocates fresh use
//! lists on every step. [`PreparedProgram`] hoists that work out of the
//! per-case loop: an instruction sequence is decoded once (typically once
//! per MCMC proposal) into a dense, pre-resolved form, and
//! [`run_prepared`](PreparedProgram::run_prepared) then executes it across
//! all test cases.
//!
//! Execution semantics are shared with the interpreter — both paths drive
//! the same sandboxed step function — so the two backends cannot drift
//! apart; `run_prepared` is bit-identical to `run_instrs` by construction
//! (and by the randomized property test `prop_prepared` at the workspace
//! root).

use crate::exec::{Cpu, Emulator, Outcome};
use crate::state::MachineState;
use stoke_x86::{Flag, Instruction, Program, Reg, Xmm};

/// Per-instruction half-open ranges into the flattened use lists of a
/// [`PreparedProgram`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UseSpans {
    pub(crate) gpr: (u32, u32),
    pub(crate) xmm: (u32, u32),
    pub(crate) flag: (u32, u32),
}

/// An instruction sequence decoded once into a dense, pre-resolved form
/// that can be executed many times.
///
/// Preparation drops any notion of `UNUSED` slots (callers pass only the
/// live instructions), precomputes every instruction's register/flag use
/// sets for the undefined-read counter, and caches the static latency
/// `H(R)` of Equation 13.
///
/// ```
/// use stoke_emu::{run_instrs, PreparedProgram};
/// use stoke_emu::state::MachineState;
/// use stoke_x86::{Gpr, Program};
///
/// let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
/// let prepared = PreparedProgram::of_program(&p);
/// let mut input = MachineState::new();
/// input.set_gpr64(Gpr::Rdi, 2);
/// input.set_gpr64(Gpr::Rsi, 40);
/// // One prepare, many runs — each bit-identical to the interpreter.
/// for _ in 0..3 {
///     let out = prepared.run_prepared(&input);
///     assert_eq!(out.state, run_instrs(p.instrs(), &input).state);
///     assert_eq!(out.state.read_gpr64(Gpr::Rax), 42);
/// }
/// assert_eq!(prepared.static_latency(), p.static_latency());
/// ```
#[derive(Debug, Clone)]
pub struct PreparedProgram<'a> {
    // Crate-visible so the batched backend (`crate::batch`) can reuse the
    // decoded form — instruction list, flattened use lists and spans —
    // without re-deriving it per proposal.
    pub(crate) instrs: Vec<&'a Instruction>,
    pub(crate) gpr_uses: Vec<Reg>,
    pub(crate) xmm_uses: Vec<Xmm>,
    pub(crate) flag_uses: Vec<Flag>,
    pub(crate) spans: Vec<UseSpans>,
    latency: u64,
}

impl<'a> PreparedProgram<'a> {
    /// Prepare a sequence of instructions (borrowed; preparation performs
    /// the per-proposal decode so that per-test-case execution does no
    /// analysis work and no allocation beyond the machine state itself).
    pub fn new(instrs: impl IntoIterator<Item = &'a Instruction>) -> PreparedProgram<'a> {
        let instrs = collect_instrs(instrs);
        let n = instrs.len();
        let mut prepared = PreparedProgram {
            gpr_uses: Vec::with_capacity(GPR_USES_PER_INSTR * n),
            xmm_uses: Vec::with_capacity(n),
            flag_uses: Vec::with_capacity(FLAG_USES_PER_INSTR * n),
            spans: Vec::with_capacity(n),
            latency: 0,
            instrs,
        };
        for i in 0..n {
            prepared.decode(i);
        }
        prepared
    }

    /// Decode instruction `i` (appending its uses and span, and adding its
    /// latency); every instruction before `i` must be decoded already.
    fn decode(&mut self, i: usize) {
        let instr = self.instrs[i];
        let gpr_start = self.gpr_uses.len() as u32;
        instr.gpr_uses_into(&mut self.gpr_uses);
        let xmm_start = self.xmm_uses.len() as u32;
        instr.xmm_uses_into(&mut self.xmm_uses);
        let flag_start = self.flag_uses.len() as u32;
        self.flag_uses.extend(instr.flag_uses());
        self.spans.push(UseSpans {
            gpr: (gpr_start, self.gpr_uses.len() as u32),
            xmm: (xmm_start, self.xmm_uses.len() as u32),
            flag: (flag_start, self.flag_uses.len() as u32),
        });
        self.latency += u64::from(instr.latency());
    }

    /// Prepare a whole [`Program`].
    pub fn of_program(program: &'a Program) -> PreparedProgram<'a> {
        PreparedProgram::new(program.iter())
    }

    /// Prepare `instrs`, reusing the decoded metadata of a previously
    /// [stored](PreparedMeta::store) program for every instruction of the
    /// longest common prefix and suffix. MCMC proposals differ from the
    /// committed rewrite in at most two slots, so this replaces the O(ℓ)
    /// per-proposal use-set derivation with two `memcpy`s plus decoding of
    /// the (typically one-instruction) middle.
    ///
    /// The common affix is found by comparing instructions, not trusted
    /// from a hint, so the result is identical to
    /// [`new`](PreparedProgram::new) for *any* input — an empty or
    /// unrelated `meta` merely decodes everything afresh.
    pub fn new_diffed(
        instrs: impl IntoIterator<Item = &'a Instruction>,
        meta: &PreparedMeta,
    ) -> PreparedProgram<'a> {
        let instrs = collect_instrs(instrs);
        let (new_len, old_len) = (instrs.len(), meta.instrs.len());
        let max = new_len.min(old_len);
        let mut prefix = 0;
        while prefix < max && *instrs[prefix] == meta.instrs[prefix] {
            prefix += 1;
        }
        let mut suffix = 0;
        while suffix < max - prefix
            && *instrs[new_len - 1 - suffix] == meta.instrs[old_len - 1 - suffix]
        {
            suffix += 1;
        }
        // Prefix: the stored flat use lists and spans are bytewise what
        // `new` would derive.
        let pend = if prefix == 0 {
            UseSpans::default()
        } else {
            meta.spans[prefix - 1]
        };
        // Sized for the whole stored program plus the decoded middle, so
        // the prefix copy, the middle and the suffix copy fill them
        // without regrowing.
        let middle = new_len - suffix - prefix;
        let mut prepared = PreparedProgram {
            gpr_uses: prefix_with_room(
                &meta.gpr_uses,
                pend.gpr.1 as usize,
                GPR_USES_PER_INSTR * middle,
            ),
            xmm_uses: prefix_with_room(&meta.xmm_uses, pend.xmm.1 as usize, middle),
            flag_uses: prefix_with_room(
                &meta.flag_uses,
                pend.flag.1 as usize,
                FLAG_USES_PER_INSTR * middle,
            ),
            spans: prefix_with_room(&meta.spans, prefix, middle),
            latency: meta.lat[..prefix].iter().map(|&l| u64::from(l)).sum(),
            instrs,
        };
        // Middle: decode exactly as `new` does.
        for i in prefix..new_len - suffix {
            prepared.decode(i);
        }
        // Suffix: the stored flat use lists again, with every span rebased
        // onto this program's offsets.
        if suffix > 0 {
            let s0 = old_len - suffix;
            let start = meta.spans[s0];
            // Per-list offset deltas; negative (a shrinking edit) is fine,
            // the wrapping add below round-trips through two's complement.
            let base = (
                (prepared.gpr_uses.len() as u32).wrapping_sub(start.gpr.0),
                (prepared.xmm_uses.len() as u32).wrapping_sub(start.xmm.0),
                (prepared.flag_uses.len() as u32).wrapping_sub(start.flag.0),
            );
            prepared
                .gpr_uses
                .extend_from_slice(&meta.gpr_uses[start.gpr.0 as usize..]);
            prepared
                .xmm_uses
                .extend_from_slice(&meta.xmm_uses[start.xmm.0 as usize..]);
            prepared
                .flag_uses
                .extend_from_slice(&meta.flag_uses[start.flag.0 as usize..]);
            for s in &meta.spans[s0..] {
                prepared.spans.push(UseSpans {
                    gpr: (s.gpr.0.wrapping_add(base.0), s.gpr.1.wrapping_add(base.0)),
                    xmm: (s.xmm.0.wrapping_add(base.1), s.xmm.1.wrapping_add(base.1)),
                    flag: (s.flag.0.wrapping_add(base.2), s.flag.1.wrapping_add(base.2)),
                });
            }
            prepared.latency += meta.lat[s0..].iter().map(|&l| u64::from(l)).sum::<u64>();
        }
        #[cfg(debug_assertions)]
        {
            let full = PreparedProgram::new(prepared.instrs.iter().copied());
            debug_assert_eq!(prepared.gpr_uses, full.gpr_uses);
            debug_assert_eq!(prepared.xmm_uses, full.xmm_uses);
            debug_assert_eq!(prepared.flag_uses, full.flag_uses);
            debug_assert_eq!(prepared.latency, full.latency);
            debug_assert!(prepared
                .spans
                .iter()
                .zip(&full.spans)
                .all(|(a, b)| a.gpr == b.gpr && a.xmm == b.xmm && a.flag == b.flag));
        }
        prepared
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the prepared sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The prepared instructions, in execution order.
    pub fn instructions(&self) -> impl Iterator<Item = &'a Instruction> + '_ {
        self.instrs.iter().copied()
    }

    /// The cached static latency `H(R)` (Equation 13): the sum of every
    /// instruction's latency, including memory-access penalties.
    pub fn static_latency(&self) -> u64 {
        self.latency
    }

    /// The precomputed register uses of instruction `index` (same elements
    /// and order as [`Instruction::gpr_uses`]). Static analyses can read
    /// these instead of re-deriving use sets per proposal.
    pub fn gpr_uses_of(&self, index: usize) -> &[Reg] {
        let span = self.spans[index].gpr;
        &self.gpr_uses[span.0 as usize..span.1 as usize]
    }

    /// The precomputed xmm uses of instruction `index`.
    pub fn xmm_uses_of(&self, index: usize) -> &[Xmm] {
        let span = self.spans[index].xmm;
        &self.xmm_uses[span.0 as usize..span.1 as usize]
    }

    /// The precomputed flag uses of instruction `index`.
    pub fn flag_uses_of(&self, index: usize) -> &[Flag] {
        let span = self.spans[index].flag;
        &self.flag_uses[span.0 as usize..span.1 as usize]
    }

    /// Run the prepared sequence from `input`, sandboxing all undefined
    /// behaviour exactly as [`run_instrs`](crate::run_instrs) does.
    pub fn run_prepared(&self, input: &MachineState) -> Outcome {
        let mut emu = Emulator::start(input);
        for (instr, spans) in self.instrs.iter().zip(&self.spans) {
            // The undefined-read counter of Equation 11, over the
            // precomputed use lists (same elements, same order as the
            // interpreter's per-step analysis).
            for r in &self.gpr_uses[spans.gpr.0 as usize..spans.gpr.1 as usize] {
                if !emu.state.gpr_is_defined(r.parent()) {
                    emu.faults.undef += 1;
                }
            }
            for x in &self.xmm_uses[spans.xmm.0 as usize..spans.xmm.1 as usize] {
                if !emu.state.xmm_is_defined(*x) {
                    emu.faults.undef += 1;
                }
            }
            for f in &self.flag_uses[spans.flag.0 as usize..spans.flag.1 as usize] {
                if !emu.state.flag_is_defined(*f) {
                    emu.faults.undef += 1;
                }
            }
            emu.execute(instr);
        }
        emu.finish()
    }
}

/// Initial capacity of the flat GPR use list per instruction: an explicit
/// source, a read destination and an address register or implicit use
/// cover almost every instruction, so the list rarely regrows.
const GPR_USES_PER_INSTR: usize = 3;

/// Initial capacity of the flat flag use list per instruction (a
/// condition reads up to three flags, most instructions none).
const FLAG_USES_PER_INSTR: usize = 2;

/// Collect the borrowed instructions into a vector sized by the iterator's
/// upper bound when it has one (a rewrite's flattened slots report ℓ), so
/// collecting does not regrow.
fn collect_instrs<'a>(instrs: impl IntoIterator<Item = &'a Instruction>) -> Vec<&'a Instruction> {
    let iter = instrs.into_iter();
    let (lower, upper) = iter.size_hint();
    let mut v = Vec::with_capacity(upper.unwrap_or(lower));
    v.extend(iter);
    v
}

/// `stored[..end]` in a vector with room for all of `stored` plus `extra`
/// more elements.
fn prefix_with_room<T: Copy>(stored: &[T], end: usize, extra: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(stored.len() + extra);
    v.extend_from_slice(&stored[..end]);
    v
}

/// An owned copy of one prepared program — its instructions and decoded
/// metadata (flat use lists, spans, per-instruction latencies) — kept
/// across proposals so [`PreparedProgram::new_diffed`] can decode only the
/// instructions a proposal actually changed. The incremental backend
/// stores the committed rewrite here on every accept.
#[derive(Debug, Clone, Default)]
pub struct PreparedMeta {
    instrs: Vec<Instruction>,
    gpr_uses: Vec<Reg>,
    xmm_uses: Vec<Xmm>,
    flag_uses: Vec<Flag>,
    spans: Vec<UseSpans>,
    lat: Vec<u32>,
}

impl PreparedMeta {
    /// An empty store; [`new_diffed`](PreparedProgram::new_diffed) against
    /// it decodes everything afresh.
    pub fn new() -> PreparedMeta {
        PreparedMeta::default()
    }

    /// Overwrite this store with `prepared`'s instructions and metadata
    /// (reusing allocations).
    pub fn store(&mut self, prepared: &PreparedProgram<'_>) {
        self.instrs.clear();
        self.instrs.extend(prepared.instrs.iter().map(|&i| *i));
        self.gpr_uses.clone_from(&prepared.gpr_uses);
        self.xmm_uses.clone_from(&prepared.xmm_uses);
        self.flag_uses.clone_from(&prepared.flag_uses);
        self.spans.clone_from(&prepared.spans);
        self.lat.clear();
        self.lat.extend(prepared.instrs.iter().map(|i| i.latency()));
    }

    /// Number of stored instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_instrs;
    use stoke_x86::Gpr;

    fn input() -> MachineState {
        let mut s = MachineState::new();
        s.set_gpr64(Gpr::Rdi, 7);
        s.set_gpr64(Gpr::Rsi, 35);
        s
    }

    #[test]
    fn prepared_matches_interpreter_on_clean_code() {
        let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let a = prepared.run_prepared(&input());
        let b = run_instrs(p.instrs(), &input());
        assert_eq!(a.state, b.state);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.state.read_gpr64(Gpr::Rax), 42);
        assert_eq!(prepared.len(), 2);
        assert!(!prepared.is_empty());
    }

    #[test]
    fn prepared_counts_faults_identically() {
        // Undefined reads (rbx, flags before adc), a wild load, and a
        // divide by zero, all in one program.
        let p: Program = "addq rbx, rdi\nmovq (rbx), rcx\nxorq rdx, rdx\ndivq rdx"
            .parse()
            .unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let a = prepared.run_prepared(&input());
        let b = run_instrs(p.instrs(), &input());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.state, b.state);
        assert!(a.faults.undef > 0);
        assert_eq!(a.faults.sigsegv, 1);
        assert_eq!(a.faults.sigfpe, 1);
    }

    #[test]
    fn prepared_latency_matches_program_latency() {
        let p: Program = "movq rdi, -8(rsp)\nmovq -8(rsp), rax\naddq rsi, rax"
            .parse()
            .unwrap();
        assert_eq!(
            PreparedProgram::of_program(&p).static_latency(),
            p.static_latency()
        );
    }

    #[test]
    fn diffed_prepare_is_identical_to_full_prepare() {
        let old: Program = "movq rdi, rax\naddq rsi, rax\nadcq rdi, rax\nxorq rcx, rcx"
            .parse()
            .unwrap();
        let prepared = PreparedProgram::of_program(&old);
        let mut meta = PreparedMeta::new();
        assert!(meta.is_empty());
        meta.store(&prepared);
        assert_eq!(meta.len(), old.len());
        // A single-slot edit, a deletion, an insertion, an unrelated
        // program, and the unchanged program itself.
        let variants = [
            "movq rdi, rax\nsubq rsi, rax\nadcq rdi, rax\nxorq rcx, rcx",
            "movq rdi, rax\nadcq rdi, rax\nxorq rcx, rcx",
            "movq rdi, rax\naddq rsi, rax\nnegq rax\nadcq rdi, rax\nxorq rcx, rcx",
            "negq rdi\nnotq rsi",
            "movq rdi, rax\naddq rsi, rax\nadcq rdi, rax\nxorq rcx, rcx",
        ];
        for text in variants {
            let p: Program = text.parse().unwrap();
            let diffed = PreparedProgram::new_diffed(p.iter(), &meta);
            let full = PreparedProgram::of_program(&p);
            assert_eq!(diffed.len(), full.len());
            assert_eq!(diffed.static_latency(), full.static_latency());
            for i in 0..full.len() {
                assert_eq!(diffed.gpr_uses_of(i), full.gpr_uses_of(i), "{text} @ {i}");
                assert_eq!(diffed.xmm_uses_of(i), full.xmm_uses_of(i), "{text} @ {i}");
                assert_eq!(diffed.flag_uses_of(i), full.flag_uses_of(i), "{text} @ {i}");
            }
            let a = diffed.run_prepared(&input());
            let b = full.run_prepared(&input());
            assert_eq!(a.state, b.state);
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn empty_program_prepares_to_identity() {
        let prepared = PreparedProgram::new(std::iter::empty());
        assert!(prepared.is_empty());
        assert_eq!(prepared.static_latency(), 0);
        let out = prepared.run_prepared(&input());
        assert_eq!(out.state, input());
        assert!(out.faults.is_clean());
    }
}
