//! Instruction operands: register, immediate and memory operands, together
//! with the operand *kind* lattice used to validate instructions and to
//! drive the MCMC operand / opcode proposal moves.

use crate::reg::{Gpr, Reg, Width, Xmm};
use std::fmt;
use std::ops::Deref;

/// The most operands any modelled opcode takes (`pshufd imm, xmm/m128,
/// xmm`). Instructions and signatures store this many slots inline.
pub const MAX_OPERANDS: usize = 3;

/// Memory address scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum Scale {
    S1,
    S2,
    S4,
    S8,
}

impl Scale {
    /// All scale factors.
    pub const ALL: [Scale; 4] = [Scale::S1, Scale::S2, Scale::S4, Scale::S8];

    /// The numeric multiplier.
    pub fn factor(self) -> u64 {
        match self {
            Scale::S1 => 1,
            Scale::S2 => 2,
            Scale::S4 => 4,
            Scale::S8 => 8,
        }
    }

    /// Parse a scale factor from its numeric value.
    pub fn from_factor(f: u64) -> Option<Scale> {
        match f {
            1 => Some(Scale::S1),
            2 => Some(Scale::S2),
            4 => Some(Scale::S4),
            8 => Some(Scale::S8),
            _ => None,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.factor())
    }
}

/// A memory operand of the form `disp(base, index, scale)`.
///
/// The effective address is `base + index * scale + disp` where absent
/// components contribute zero. The access width is determined by the
/// opcode, not by the operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mem {
    /// Base register (64-bit), if any.
    pub base: Option<Gpr>,
    /// Index register (64-bit), if any.
    pub index: Option<Gpr>,
    /// Scale applied to the index register.
    pub scale: Scale,
    /// Signed 32-bit displacement.
    pub disp: i32,
}

impl Mem {
    /// A base-register-only address: `(base)`.
    pub fn base(base: Gpr) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            scale: Scale::S1,
            disp: 0,
        }
    }

    /// A base + displacement address: `disp(base)`.
    pub fn base_disp(base: Gpr, disp: i32) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            scale: Scale::S1,
            disp,
        }
    }

    /// A fully general scaled-index address: `disp(base, index, scale)`.
    pub fn base_index(base: Gpr, index: Gpr, scale: Scale, disp: i32) -> Mem {
        Mem {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }

    /// Registers read when computing the effective address.
    pub fn regs(&self) -> impl Iterator<Item = Gpr> + '_ {
        self.base.into_iter().chain(self.index)
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disp != 0 || (self.base.is_none() && self.index.is_none()) {
            write!(f, "{}", self.disp)?;
        }
        write!(f, "(")?;
        if let Some(b) = self.base {
            write!(f, "{}", b.name64())?;
        }
        if let Some(i) = self.index {
            write!(f, ",{},{}", i.name64(), self.scale)?;
        }
        write!(f, ")")
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general purpose register view.
    Reg(Reg),
    /// An SSE register.
    Xmm(Xmm),
    /// An immediate constant (stored sign-extended to 64 bits).
    Imm(i64),
    /// A memory reference.
    Mem(Mem),
}

impl Operand {
    /// The kind of this operand (used for signature validation).
    pub fn kind(&self) -> OperandKind {
        match self {
            Operand::Reg(r) => OperandKind::Reg(r.width()),
            Operand::Xmm(_) => OperandKind::Xmm,
            Operand::Imm(_) => OperandKind::Imm,
            Operand::Mem(_) => OperandKind::Mem,
        }
    }

    /// The register, if this is a GPR operand.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The SSE register, if this is an XMM operand.
    pub fn as_xmm(&self) -> Option<Xmm> {
        match self {
            Operand::Xmm(x) => Some(*x),
            _ => None,
        }
    }

    /// The immediate value, if this is an immediate operand.
    pub fn as_imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(i) => Some(*i),
            _ => None,
        }
    }

    /// The memory reference, if this is a memory operand.
    pub fn as_mem(&self) -> Option<Mem> {
        match self {
            Operand::Mem(m) => Some(*m),
            _ => None,
        }
    }

    /// Whether this operand is a memory reference.
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{}", r),
            Operand::Xmm(x) => write!(f, "{}", x),
            Operand::Imm(i) => write!(f, "{}", i),
            Operand::Mem(m) => write!(f, "{}", m),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<Xmm> for Operand {
    fn from(x: Xmm) -> Operand {
        Operand::Xmm(x)
    }
}

impl From<Mem> for Operand {
    fn from(m: Mem) -> Operand {
        Operand::Mem(m)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Operand {
        Operand::Imm(i)
    }
}

/// The concrete kind of an operand, used to match operands against opcode
/// signatures and to define the operand equivalence classes of the MCMC
/// `Operand` move (an operand is only ever replaced by another operand of
/// the same kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// A GPR view of the given width.
    Reg(Width),
    /// An SSE register.
    Xmm,
    /// An immediate.
    Imm,
    /// A memory reference.
    Mem,
}

/// What an opcode accepts in a particular operand slot.
///
/// This is a small set over [`OperandKind`]: e.g. the source slot of `addq`
/// accepts a 64-bit register, an immediate or a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotSpec {
    /// Accepts a GPR of this width.
    pub reg: Option<Width>,
    /// Accepts an immediate.
    pub imm: bool,
    /// Accepts a memory reference.
    pub mem: bool,
    /// Accepts an SSE register.
    pub xmm: bool,
}

impl SlotSpec {
    /// A slot that only accepts a GPR of width `w`.
    pub const fn reg(w: Width) -> SlotSpec {
        SlotSpec {
            reg: Some(w),
            imm: false,
            mem: false,
            xmm: false,
        }
    }

    /// A slot that accepts a GPR of width `w` or a memory reference.
    pub const fn reg_mem(w: Width) -> SlotSpec {
        SlotSpec {
            reg: Some(w),
            imm: false,
            mem: true,
            xmm: false,
        }
    }

    /// A slot that accepts a GPR of width `w`, an immediate or a memory
    /// reference (a typical ALU source slot).
    pub const fn reg_imm_mem(w: Width) -> SlotSpec {
        SlotSpec {
            reg: Some(w),
            imm: true,
            mem: true,
            xmm: false,
        }
    }

    /// A slot that accepts a GPR of width `w` or an immediate.
    pub const fn reg_imm(w: Width) -> SlotSpec {
        SlotSpec {
            reg: Some(w),
            imm: true,
            mem: false,
            xmm: false,
        }
    }

    /// A slot that only accepts an immediate.
    pub const fn imm() -> SlotSpec {
        SlotSpec {
            reg: None,
            imm: true,
            mem: false,
            xmm: false,
        }
    }

    /// A slot that only accepts a memory reference.
    pub const fn mem() -> SlotSpec {
        SlotSpec {
            reg: None,
            imm: false,
            mem: true,
            xmm: false,
        }
    }

    /// A slot that only accepts an SSE register.
    pub const fn xmm() -> SlotSpec {
        SlotSpec {
            reg: None,
            imm: false,
            mem: false,
            xmm: true,
        }
    }

    /// A slot that accepts an SSE register or a memory reference.
    pub const fn xmm_mem() -> SlotSpec {
        SlotSpec {
            reg: None,
            imm: false,
            mem: true,
            xmm: true,
        }
    }

    /// Whether an operand of kind `k` is allowed in this slot.
    pub fn accepts(&self, k: OperandKind) -> bool {
        match k {
            OperandKind::Reg(w) => self.reg == Some(w),
            OperandKind::Imm => self.imm,
            OperandKind::Mem => self.mem,
            OperandKind::Xmm => self.xmm,
        }
    }
}

/// An opcode's operand-slot specifications, in AT&T order (sources
/// before the destination), stored inline: [`Opcode::signature`] builds
/// one without allocating. Dereferences to `[SlotSpec]`.
///
/// [`Opcode::signature`]: crate::Opcode::signature
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    slots: [SlotSpec; MAX_OPERANDS],
    len: u8,
}

impl Signature {
    /// A signature of the given slots (at most [`MAX_OPERANDS`]).
    pub(crate) fn new(slots: &[SlotSpec]) -> Signature {
        let mut inline = [SlotSpec::imm(); MAX_OPERANDS];
        inline[..slots.len()].copy_from_slice(slots);
        Signature {
            slots: inline,
            len: slots.len() as u8,
        }
    }
}

impl Deref for Signature {
    type Target = [SlotSpec];

    fn deref(&self) -> &[SlotSpec] {
        &self.slots[..usize::from(self.len)]
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_display() {
        let m = Mem::base_disp(Gpr::Rsp, -8);
        assert_eq!(m.to_string(), "-8(rsp)");
        let m = Mem::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S4, 0);
        assert_eq!(m.to_string(), "(rsi,rcx,4)");
        let m = Mem::base_index(Gpr::Rdx, Gpr::R9, Scale::S4, 16);
        assert_eq!(m.to_string(), "16(rdx,r9,4)");
        let m = Mem::base(Gpr::Rdi);
        assert_eq!(m.to_string(), "(rdi)");
    }

    #[test]
    fn slot_spec_accepts() {
        let s = SlotSpec::reg_imm_mem(Width::Q);
        assert!(s.accepts(OperandKind::Reg(Width::Q)));
        assert!(!s.accepts(OperandKind::Reg(Width::L)));
        assert!(s.accepts(OperandKind::Imm));
        assert!(s.accepts(OperandKind::Mem));
        assert!(!s.accepts(OperandKind::Xmm));

        let x = SlotSpec::xmm_mem();
        assert!(x.accepts(OperandKind::Xmm));
        assert!(x.accepts(OperandKind::Mem));
        assert!(!x.accepts(OperandKind::Imm));
    }

    #[test]
    fn operand_kinds() {
        assert_eq!(Operand::Imm(3).kind(), OperandKind::Imm);
        assert_eq!(
            Operand::Reg(Reg::new(Gpr::Rax, Width::L)).kind(),
            OperandKind::Reg(Width::L)
        );
        assert_eq!(Operand::Xmm(Xmm(3)).kind(), OperandKind::Xmm);
        assert_eq!(Operand::Mem(Mem::base(Gpr::Rdi)).kind(), OperandKind::Mem);
    }

    #[test]
    fn mem_regs_iter() {
        let m = Mem::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S4, 0);
        let regs: Vec<_> = m.regs().collect();
        assert_eq!(regs, vec![Gpr::Rsi, Gpr::Rcx]);
        let m = Mem::base(Gpr::Rdi);
        assert_eq!(m.regs().count(), 1);
    }

    #[test]
    fn scale_roundtrip() {
        for s in Scale::ALL {
            assert_eq!(Scale::from_factor(s.factor()), Some(s));
        }
        assert_eq!(Scale::from_factor(3), None);
    }
}
