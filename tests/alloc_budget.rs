//! Allocation budget of the MCMC hot path.
//!
//! One optimization-chain proposal runs propose → prepare → evaluate →
//! accept. None of those steps should allocate per instruction: operands
//! live inline in `Instruction`, opcode metadata comes from tables, and
//! the flat use lists are sized once. This binary installs a counting
//! global allocator and asserts a fixed per-proposal budget on the longest
//! kernel (p20, 209 instructions), and that the count does not grow with
//! program length (p20 within 2× of p01, 6 instructions).
//!
//! The counter is per thread, so the test harness's own threads do not
//! disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stoke_suite::stoke::{
    generate_testcases, BackendSpec, Chain, Config, CostFn, InputSpec, Rewrite, TargetSpec,
};
use stoke_suite::workloads::{hackers_delight, Kernel, ParamKind};
use stoke_suite::x86::Gpr;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Per-proposal allocation ceiling for an optimization chain.
const BUDGET: f64 = 32.0;

const PROPOSALS: u64 = 400;

const PARAM_REGS: [Gpr; 6] = [Gpr::Rdi, Gpr::Rsi, Gpr::Rdx, Gpr::Rcx, Gpr::R8, Gpr::R9];

/// The optimization chain of a search on `kernel` with the benchmark's
/// sweep settings (ℓ = 24, 16 test cases): the chain starts from the
/// `-O0` target and scores with the performance term on. Returns the mean
/// number of allocations per proposal of `Chain::run`.
fn allocs_per_proposal(kernel: &Kernel, backend: BackendSpec) -> f64 {
    let inputs = kernel
        .params
        .iter()
        .zip(PARAM_REGS)
        .map(|(kind, g)| match kind {
            ParamKind::Value32 => InputSpec::value32(g),
            ParamKind::Value64 => InputSpec::value64(g),
            ParamKind::Pointer(len) => InputSpec::pointer_masked(g, *len, 0x3fff),
        })
        .collect();
    let spec = TargetSpec::new(kernel.target_o0(), inputs, kernel.live_out.clone());
    let config = Config::builder()
        .ell(24)
        .num_testcases(16)
        .threads(1)
        .backend(backend)
        .build()
        .expect("valid configuration");
    let suite = generate_testcases(&spec, config.num_testcases, config.seed);
    let mut cost = CostFn::new(config.clone(), suite, spec.program.static_latency());
    let mut chain = Chain::new(&mut cost, config.seed, true);
    let start = Rewrite::from_program(&spec.program, config.ell);
    let before = allocations();
    let result = chain.run(start, PROPOSALS);
    let counted = allocations() - before;
    assert_eq!(result.proposals, PROPOSALS);
    counted as f64 / PROPOSALS as f64
}

#[test]
fn optimization_proposals_stay_within_the_allocation_budget() {
    let long = hackers_delight::p20();
    assert!(long.target_o0().len() > 200, "p20 is the long kernel");
    let short = hackers_delight::p01();
    for backend in [BackendSpec::Batched, BackendSpec::Incremental] {
        let p20 = allocs_per_proposal(&long, backend);
        let p01 = allocs_per_proposal(&short, backend);
        eprintln!("{backend:?}: p20 {p20:.1} allocations/proposal, p01 {p01:.1}");
        assert!(
            p20 <= BUDGET,
            "{backend:?}: p20 makes {p20:.1} allocations per proposal (budget {BUDGET})"
        );
        assert!(
            p20 <= 2.0 * p01.max(1.0),
            "{backend:?}: allocations grow with program length: p20 {p20:.1} vs p01 {p01:.1}"
        );
    }
}
