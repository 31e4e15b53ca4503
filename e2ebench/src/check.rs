//! Output checks against an independent reference: every kernel is
//! defined once in the `stoke-ir` expression IR, and `stoke_ir::evaluate`
//! computes its result (and its stores) without going through the
//! emulator, the search or the validator. Rewrites run on the plain
//! per-step interpreter `stoke_emu::run_instrs`.

use std::collections::BTreeMap;
use stoke::{generate_testcases, InputKind, TargetSpec};
use stoke_emu::{run_instrs, MachineState};
use stoke_workloads::Kernel;
use stoke_x86::Program;

/// Fresh inputs each returned rewrite is checked on. A wrong rewrite that
/// survives the search's own test cases is typically wrong on a fraction
/// of a percent of inputs (saxpy's at `search-long`'s budget, on 7 of
/// 2000), so a few dozen inputs would miss it on most seeds.
pub const CHECK_CASES: usize = 2000;

/// What the reference says a program must produce from `input`: the
/// live-out register (if the kernel returns a value) and the bytes of
/// every pointer buffer after the kernel's stores.
struct Expected {
    ret: Option<u64>,
    buffers: Vec<(u64, Vec<u8>)>,
}

fn expected(kernel: &Kernel, spec: &TargetSpec, input: &MachineState) -> Expected {
    let mut params = Vec::with_capacity(spec.inputs.len());
    let mut memory = BTreeMap::new();
    let mut ranges = Vec::new();
    for is in &spec.inputs {
        let value = input.read_gpr64(is.reg);
        params.push(value);
        if let InputKind::Pointer { len, .. } = is.kind {
            for a in value..value + len {
                memory.insert(a, input.memory.peek(a));
            }
            ranges.push((value, len));
        }
    }
    let ret = stoke_ir::evaluate(&kernel.ir, &params, &mut memory);
    Expected {
        ret: kernel.ir.ret.map(|_| ret),
        buffers: ranges
            .into_iter()
            .map(|(base, len)| {
                let bytes = (base..base + len)
                    .map(|a| *memory.get(&a).unwrap_or(&0))
                    .collect();
                (base, bytes)
            })
            .collect(),
    }
}

/// Compare one run of `program` on `input` with the reference; `None`
/// when they agree, otherwise what differed.
pub fn mismatch(
    kernel: &Kernel,
    spec: &TargetSpec,
    program: &Program,
    input: &MachineState,
) -> Option<String> {
    let out = run_instrs(program.instrs(), input);
    if !out.faults.is_clean() {
        return Some(format!("faulted ({:?})", out.faults));
    }
    let want = expected(kernel, spec, input);
    if let (Some(ret), Some(reg)) = (want.ret, spec.live_out.gprs.iter().next()) {
        let got = out.state.read_gpr64(*reg);
        if got != ret {
            return Some(format!("{reg:?} = {got:#x}, reference {ret:#x}"));
        }
    }
    for (base, bytes) in &want.buffers {
        for (i, b) in bytes.iter().enumerate() {
            let got = out.state.memory.peek(base + i as u64);
            if got != *b {
                return Some(format!(
                    "byte {:#x} = {got:#x}, reference {b:#x}",
                    base + i as u64
                ));
            }
        }
    }
    None
}

/// Inputs at the edges of each input's range, the same for every seed:
/// every combination of 0, 1 and the mask for value inputs, and of
/// buffers filled with 0, 1, the element mask, or those three in turn for
/// pointer inputs. Buffers keep `template`'s addresses. Random inputs
/// almost never hit these: list's rewrite, for one, is wrong exactly when
/// the node's value is 0.
fn boundary_inputs(spec: &TargetSpec, template: &MachineState) -> Vec<MachineState> {
    type Setter<'a> = Box<dyn Fn(&mut MachineState) + 'a>;
    let mut inputs = vec![template.clone()];
    for is in &spec.inputs {
        let choices: Vec<Setter<'_>> = match is.kind {
            InputKind::Value { mask } => [0, 1, mask]
                .into_iter()
                .map(|v| -> Setter<'_> {
                    Box::new(move |s: &mut MachineState| s.set_gpr64(is.reg, v))
                })
                .collect(),
            InputKind::Pointer { len, elem_mask } => (0..4)
                .map(|fill| -> Setter<'_> {
                    let words = [0, 1, elem_mask];
                    let reg = is.reg;
                    Box::new(move |s: &mut MachineState| {
                        let base = s.read_gpr64(reg);
                        for (i, offset) in (0..len).step_by(4).enumerate() {
                            let word = if fill < 3 { words[fill] } else { words[i % 3] };
                            s.memory
                                .poke_wide(base + offset, word, (len - offset).min(4));
                        }
                    })
                })
                .collect(),
        };
        inputs = inputs
            .iter()
            .flat_map(|input| {
                choices.iter().map(move |set| {
                    let mut next = input.clone();
                    set(&mut next);
                    next
                })
            })
            .collect();
    }
    inputs
}

/// Check `program` against the kernel's reference on `cases` fresh inputs
/// drawn from `spec` with `seed`, and on the boundary inputs.
pub fn check_program(
    kernel: &Kernel,
    spec: &TargetSpec,
    program: &Program,
    cases: usize,
    seed: u64,
) -> Result<(), String> {
    let suite = generate_testcases(spec, cases, seed);
    let boundary = boundary_inputs(spec, &suite.cases[0].input);
    let inputs = suite.cases.iter().map(|c| &c.input).chain(&boundary);
    for input in inputs {
        if let Some(why) = mismatch(kernel, spec, program, input) {
            return Err(why);
        }
    }
    Ok(())
}

/// An input built from `template` with the value inputs taken from a
/// validator counterexample, the way the search's refinement loop builds
/// one (pointer inputs keep the template's buffers).
pub fn counterexample_input(
    spec: &TargetSpec,
    template: &MachineState,
    gprs: &[u64; 16],
) -> MachineState {
    let mut input = template.clone();
    for is in &spec.inputs {
        if let InputKind::Value { mask } = is.kind {
            input.set_gpr64(is.reg, gprs[is.reg.index()] & mask);
        }
    }
    input
}

/// An input built from `template` with the first input set to `value`.
/// A pointer input is moved: its buffer is copied to the new address.
pub fn input_with_first(spec: &TargetSpec, template: &MachineState, value: u64) -> MachineState {
    let mut input = template.clone();
    let first = &spec.inputs[0];
    match first.kind {
        InputKind::Value { mask } => input.set_gpr64(first.reg, value & mask),
        InputKind::Pointer { len, .. } => {
            let old = template.read_gpr64(first.reg);
            input.memory.mark_valid(value, len);
            for i in 0..len {
                input.memory.poke(value + i, template.memory.peek(old + i));
            }
            input.set_gpr64(first.reg, value);
        }
    }
    input
}
