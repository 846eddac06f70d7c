//! Post-compile bytecode optimizer.
//!
//! Runs between [`compile_program`](crate::compile_program) and kernel
//! construction, playing the role the LLVM backend plays for the paper's
//! MLIR pipeline: the IR-level passes decide *what* to compute, this
//! stage shaves the interpreter overhead of *how* — dispatches per step
//! and register-file footprint.
//!
//! Four rewrites run to a local fixpoint, then registers are renumbered:
//!
//! 1. **Copy propagation** (block-local): uses of a `Mov` destination are
//!    rewritten to read the source directly, turning branch/loop plumbing
//!    movs into dead code.
//! 2. **Superinstruction fusion** (peephole, adjacent pairs): `Mul`+`Add`
//!    becomes [`Instr::FmaF`]; a state/ext load feeding one float binop
//!    becomes [`Instr::LoadStateOp`]/[`Instr::LoadExtOp`]. Fusion halves
//!    the dispatch count of the pair and is bit-exact because the engine
//!    evaluates `FmaF` as a separate multiply and add.
//! 3. **Constant-operand fusion**: a register whose only definition is a
//!    [`Instr::ConstF`] is a compile-time constant everywhere (the input
//!    IR is verified SSA, so the definition dominates every use); binops
//!    reading it become [`Instr::BinFK`]/[`Instr::BinKF`] ("`AddK`",
//!    "`MulK`", ...) and binops with two constant operands fold to a
//!    `ConstF`.
//! 4. **Dead-code elimination** (use counts, to fixpoint): pure
//!    instructions whose destination register is never read are dropped —
//!    this is what actually deletes the movs and constants orphaned by
//!    rewrites 1–3. An [`Instr::LutRow`] writes one register per column:
//!    it loses each column nothing reads and goes with the last one.
//!
//! Finally **register compaction** renumbers each register file with a
//! linear-scan allocator over conservative live intervals (extended
//! across loop backedges), shrinking the per-chunk working set.
//!
//! The stage always runs when a kernel is compiled. Callers that measure
//! or test the unoptimized program pass the setting per call
//! (`Kernel::from_module_opt`, `limpet-opt --no-bytecode-opt`). It
//! reports [`OptStats`] counters that the harness surfaces as a synthetic
//! pass in `Compiled::pass_report()`.

use crate::bytecode::{FBin, Instr, Program};
use std::collections::BinaryHeap;

/// Always `true`: the optimizer has no process-wide switch. Kept only
/// because the benchmark package still calls it to key its cache entries.
pub fn bytecode_opt_enabled() -> bool {
    true
}

/// Counters reported by [`optimize_program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// `Mov*` instructions deleted (after copy propagation made them dead).
    pub movs_removed: u64,
    /// `Mul`+`Add` pairs fused into `FmaF`.
    pub fused_fma: u64,
    /// Load+binop pairs fused into `LoadStateOp`/`LoadExtOp`.
    pub fused_loadop: u64,
    /// Binops rewritten to a constant-operand form (`BinFK`/`BinKF`).
    pub fused_const: u64,
    /// Binops with two constant operands folded to a `ConstF`.
    pub consts_folded: u64,
    /// Total instructions deleted (dead code, including the movs).
    pub instrs_removed: u64,
    /// Float registers freed by compaction.
    pub fregs_freed: u64,
    /// Boolean registers freed by compaction.
    pub bregs_freed: u64,
    /// Integer registers freed by compaction.
    pub iregs_freed: u64,
    /// Instruction count before optimization.
    pub instrs_before: u64,
    /// Instruction count after optimization.
    pub instrs_after: u64,
}

impl OptStats {
    /// Whether the optimizer changed the program at all.
    pub fn changed(&self) -> bool {
        self.instrs_before != self.instrs_after
            || self.fused_const > 0
            || self.fregs_freed > 0
            || self.bregs_freed > 0
            || self.iregs_freed > 0
    }

    /// The counters in pass-report form (stable names, first-use order).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("movs-removed", self.movs_removed),
            ("fma-fused", self.fused_fma),
            ("loadop-fused", self.fused_loadop),
            ("const-fused", self.fused_const),
            ("consts-folded", self.consts_folded),
            ("instrs-removed", self.instrs_removed),
            ("fregs-freed", self.fregs_freed),
            ("bregs-freed", self.bregs_freed),
            ("iregs-freed", self.iregs_freed),
            ("instrs-before", self.instrs_before),
            ("instrs-after", self.instrs_after),
        ]
    }
}

/// Register classes (mirrors the private enum in `bytecode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegClass {
    F,
    B,
    I,
}

/// Visits every register an instruction writes (mutably, for
/// renumbering): one for most instructions, one per column for a
/// [`Instr::LutRow`], none for stores and control flow.
fn for_each_def_mut(instr: &mut Instr, mut f: impl FnMut(RegClass, &mut u16)) {
    use Instr::*;
    match instr {
        ConstF { dst, .. }
        | MovF { dst, .. }
        | LoadParam { dst, .. }
        | LoadDt { dst }
        | LoadTime { dst }
        | LoadState { dst, .. }
        | LoadExt { dst, .. }
        | LoadParentState { dst, .. }
        | BinF { dst, .. }
        | BinFK { dst, .. }
        | BinKF { dst, .. }
        | LoadStateOp { dst, .. }
        | LoadExtOp { dst, .. }
        | NegF { dst, .. }
        | FmaF { dst, .. }
        | Math1 { dst, .. }
        | Math2 { dst, .. }
        | SelectF { dst, .. }
        | SIToFP { dst, .. } => f(RegClass::F, dst),
        LutRow { outs, .. } => {
            for (_, dst) in outs.iter_mut() {
                f(RegClass::F, dst);
            }
        }
        ConstB { dst, .. }
        | MovB { dst, .. }
        | HasParent { dst }
        | CmpF { dst, .. }
        | CmpI { dst, .. }
        | BinB { dst, .. }
        | SelectB { dst, .. } => f(RegClass::B, dst),
        ConstI { dst, .. } | MovI { dst, .. } | CellIndex { dst } | BinI { dst, .. } => {
            f(RegClass::I, dst)
        }
        StoreState { .. }
        | StoreExt { .. }
        | StoreParentState { .. }
        | Jump { .. }
        | JumpIfNot { .. }
        | Ret => {}
    }
}

/// Visits every register an instruction writes.
pub(crate) fn for_each_def(instr: &Instr, mut f: impl FnMut(RegClass, u16)) {
    // A row owns its column list: read it in place, don't copy it.
    if let Instr::LutRow { outs, .. } = instr {
        return outs.iter().for_each(|&(_, dst)| f(RegClass::F, dst));
    }
    let mut copy = instr.clone();
    for_each_def_mut(&mut copy, |cls, r| f(cls, *r));
}

/// Visits every register an instruction reads (mutably, for rewriting).
fn for_each_use_mut(instr: &mut Instr, mut f: impl FnMut(RegClass, &mut u16)) {
    use Instr::*;
    match instr {
        MovF { src, .. }
        | StoreState { src, .. }
        | StoreExt { src, .. }
        | StoreParentState { src, .. } => f(RegClass::F, src),
        LoadParentState { fallback, .. } => f(RegClass::F, fallback),
        BinF { a, b, .. } | Math2 { a, b, .. } | CmpF { a, b, .. } => {
            f(RegClass::F, a);
            f(RegClass::F, b);
        }
        BinFK { a, .. } | BinKF { a, .. } | NegF { a, .. } | Math1 { a, .. } => f(RegClass::F, a),
        LoadStateOp { b, .. } | LoadExtOp { b, .. } => f(RegClass::F, b),
        FmaF { a, b, c, .. } => {
            f(RegClass::F, a);
            f(RegClass::F, b);
            f(RegClass::F, c);
        }
        SelectF { cond, a, b, .. } => {
            f(RegClass::B, cond);
            f(RegClass::F, a);
            f(RegClass::F, b);
        }
        SelectB { cond, a, b, .. } => {
            f(RegClass::B, cond);
            f(RegClass::B, a);
            f(RegClass::B, b);
        }
        MovB { src, .. } => f(RegClass::B, src),
        BinB { a, b, .. } => {
            f(RegClass::B, a);
            f(RegClass::B, b);
        }
        JumpIfNot { cond, .. } => f(RegClass::B, cond),
        MovI { src, .. } => f(RegClass::I, src),
        SIToFP { a, .. } => f(RegClass::I, a),
        BinI { a, b, .. } | CmpI { a, b, .. } => {
            f(RegClass::I, a);
            f(RegClass::I, b);
        }
        LutRow { key, .. } => f(RegClass::F, key),
        ConstF { .. }
        | ConstI { .. }
        | ConstB { .. }
        | LoadParam { .. }
        | LoadDt { .. }
        | LoadTime { .. }
        | CellIndex { .. }
        | LoadState { .. }
        | LoadExt { .. }
        | HasParent { .. }
        | Jump { .. }
        | Ret => {}
    }
}

/// Visits every register an instruction reads.
pub(crate) fn for_each_use(instr: &Instr, mut f: impl FnMut(RegClass, u16)) {
    if let Instr::LutRow { key, .. } = instr {
        return f(RegClass::F, *key);
    }
    let mut copy = instr.clone();
    for_each_use_mut(&mut copy, |cls, r| f(cls, *r));
}

/// Visits every register field — defs and uses — for renumbering.
fn for_each_reg_mut(instr: &mut Instr, mut f: impl FnMut(RegClass, &mut u16)) {
    for_each_def_mut(instr, &mut f);
    for_each_use_mut(instr, f);
}

/// Whether an instruction has effects beyond writing its destination
/// register (stores, control flow). These anchor dead-code elimination.
fn has_side_effect(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::StoreState { .. }
            | Instr::StoreExt { .. }
            | Instr::StoreParentState { .. }
            | Instr::Jump { .. }
            | Instr::JumpIfNot { .. }
            | Instr::Ret
    )
}

fn jump_target_mut(instr: &mut Instr) -> Option<&mut u32> {
    match instr {
        Instr::Jump { target } | Instr::JumpIfNot { target, .. } => Some(target),
        _ => None,
    }
}

/// Basic-block leaders: instruction 0, every jump target, and every
/// instruction following a jump. Indexed by pc; one slot past the end so
/// `pc + 1` is always a valid probe.
fn leader_set(p: &Program) -> Vec<bool> {
    let n = p.instrs.len();
    let mut lead = vec![false; n + 1];
    if n > 0 {
        lead[0] = true;
    }
    for (pc, instr) in p.instrs.iter().enumerate() {
        if let Instr::Jump { target } | Instr::JumpIfNot { target, .. } = instr {
            lead[*target as usize] = true;
            lead[pc + 1] = true;
        }
    }
    lead
}

/// Exact scalar semantics of [`Instr::BinF`] — must match the engine.
fn fbin_scalar(op: FBin, x: f64, y: f64) -> f64 {
    match op {
        FBin::Add => x + y,
        FBin::Sub => x - y,
        FBin::Mul => x * y,
        FBin::Div => x / y,
        FBin::Rem => x % y,
        FBin::Min => x.min(y),
        FBin::Max => x.max(y),
    }
}

fn commutes(op: FBin) -> bool {
    // Min/Max commute for the engine's `f64::min`/`max` except on mixed
    // NaN operands (`min(NaN, x) = x` but `min(x, NaN) = NaN`), so only
    // Add and Mul are swapped. Add/Mul are bit-exact under swap (IEEE 754
    // addition/multiplication are commutative, including NaN payload
    // propagation on this target).
    matches!(op, FBin::Add | FBin::Mul)
}

/// Rebuilds `p.instrs` keeping only flagged instructions; jump targets
/// are remapped (a target pointing at a removed instruction slides to
/// the next kept one).
fn retain_instrs(p: &mut Program, keep: &[bool]) {
    let n = p.instrs.len();
    let mut map = vec![0u32; n + 1];
    let mut out = Vec::with_capacity(n);
    for pc in 0..n {
        map[pc] = out.len() as u32;
        if keep[pc] {
            out.push(p.instrs[pc].clone());
        }
    }
    map[n] = out.len() as u32;
    for instr in &mut out {
        if let Some(t) = jump_target_mut(instr) {
            *t = map[*t as usize];
        }
    }
    p.instrs = out;
}

/// Block-local forward copy propagation: rewrites reads of a `Mov`
/// destination to the source while neither is redefined. Returns whether
/// any operand changed.
fn copy_propagate(p: &mut Program) -> bool {
    let lead = leader_set(p);
    let mut changed = false;
    let mut copy_f: Vec<Option<u16>> = vec![None; p.n_fregs];
    let mut copy_b: Vec<Option<u16>> = vec![None; p.n_bregs];
    let mut copy_i: Vec<Option<u16>> = vec![None; p.n_iregs];
    // `lead` has one sentinel slot past the end — iterate instrs' length.
    for (pc, leader) in lead.iter().take(p.instrs.len()).enumerate() {
        if *leader {
            copy_f.iter_mut().for_each(|e| *e = None);
            copy_b.iter_mut().for_each(|e| *e = None);
            copy_i.iter_mut().for_each(|e| *e = None);
        }
        let instr = &mut p.instrs[pc];
        for_each_use_mut(instr, |cls, r| {
            let map = match cls {
                RegClass::F => &copy_f,
                RegClass::B => &copy_b,
                RegClass::I => &copy_i,
            };
            if let Some(Some(src)) = map.get(*r as usize) {
                if *src != *r {
                    *r = *src;
                    changed = true;
                }
            }
        });
        for_each_def(instr, |cls, dst| {
            let map = match cls {
                RegClass::F => &mut copy_f,
                RegClass::B => &mut copy_b,
                RegClass::I => &mut copy_i,
            };
            map[dst as usize] = None;
            for entry in map.iter_mut() {
                if *entry == Some(dst) {
                    *entry = None;
                }
            }
        });
        match *instr {
            Instr::MovF { dst, src } if dst != src => copy_f[dst as usize] = Some(src),
            Instr::MovB { dst, src } if dst != src => copy_b[dst as usize] = Some(src),
            Instr::MovI { dst, src } if dst != src => copy_i[dst as usize] = Some(src),
            _ => {}
        }
    }
    changed
}

/// Tries to fuse the adjacent pair `(x, y)` into one superinstruction.
/// `reads_f[t]` is the whole-program float read count; a candidate temp
/// must be read exactly once (by `y`) so dropping its def is safe.
fn try_fuse(x: &Instr, y: &Instr, reads_f: &[u32]) -> Option<(Instr, bool)> {
    // Mul + Add -> FmaF (the engine evaluates FmaF as mul-then-add, so
    // this is bit-exact).
    if let Instr::BinF {
        op: FBin::Mul,
        dst: t,
        a,
        b,
    } = *x
    {
        if let Instr::BinF {
            op: FBin::Add,
            dst,
            a: ya,
            b: yb,
        } = *y
        {
            if reads_f[t as usize] == 1 {
                if ya == t && yb != t {
                    return Some((Instr::FmaF { dst, a, b, c: yb }, true));
                }
                if yb == t && ya != t {
                    return Some((Instr::FmaF { dst, a, b, c: ya }, true));
                }
            }
        }
    }
    // Load + binop -> load-op.
    let loaded = match *x {
        Instr::LoadState { dst, var } => Some((dst, var, true)),
        Instr::LoadExt { dst, var } => Some((dst, var, false)),
        _ => None,
    };
    if let Some((t, var, is_state)) = loaded {
        if let Instr::BinF { op, dst, a, b } = *y {
            if reads_f[t as usize] == 1 && a != b {
                // The load must end up as the left operand; swap only
                // bit-exact-commutative ops.
                let other = if a == t {
                    Some(b)
                } else if b == t && commutes(op) {
                    Some(a)
                } else {
                    None
                };
                if let Some(other) = other {
                    let fused = if is_state {
                        Instr::LoadStateOp {
                            op,
                            dst,
                            var,
                            b: other,
                        }
                    } else {
                        Instr::LoadExtOp {
                            op,
                            dst,
                            var,
                            b: other,
                        }
                    };
                    return Some((fused, false));
                }
            }
        }
    }
    None
}

/// One peephole sweep over adjacent instruction pairs. A pair is only
/// fused when no jump lands between its halves.
fn fuse_peepholes(p: &mut Program, stats: &mut OptStats) -> bool {
    let lead = leader_set(p);
    let mut reads_f = vec![0u32; p.n_fregs];
    for instr in &p.instrs {
        for_each_use(instr, |cls, r| {
            if cls == RegClass::F {
                reads_f[r as usize] += 1;
            }
        });
    }
    let n = p.instrs.len();
    let mut out = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut pc = 0;
    let mut changed = false;
    while pc < n {
        map[pc] = out.len() as u32;
        let fused = if pc + 1 < n && !lead[pc + 1] {
            try_fuse(&p.instrs[pc], &p.instrs[pc + 1], &reads_f)
        } else {
            None
        };
        if let Some((instr, is_fma)) = fused {
            // The consumed slot can't be a jump target (leader check),
            // but fill the map so remapping below stays total.
            map[pc + 1] = out.len() as u32;
            out.push(instr);
            if is_fma {
                stats.fused_fma += 1;
            } else {
                stats.fused_loadop += 1;
            }
            changed = true;
            pc += 2;
        } else {
            out.push(p.instrs[pc].clone());
            pc += 1;
        }
    }
    map[n] = out.len() as u32;
    for instr in &mut out {
        if let Some(t) = jump_target_mut(instr) {
            *t = map[*t as usize];
        }
    }
    p.instrs = out;
    changed
}

/// Rewrites binops whose operands are known constants. A register counts
/// as constant when its *only* definition in the whole program is a
/// `ConstF` — the source IR is verified SSA, so that definition dominates
/// every use (multi-def loop/branch registers never qualify).
fn fuse_const_operands(p: &mut Program, stats: &mut OptStats) -> bool {
    let mut def_count = vec![0u32; p.n_fregs];
    for instr in &p.instrs {
        for_each_def(instr, |cls, d| {
            if cls == RegClass::F {
                def_count[d as usize] += 1;
            }
        });
    }
    let mut const_val: Vec<Option<f64>> = vec![None; p.n_fregs];
    for instr in &p.instrs {
        if let Instr::ConstF { dst, v } = instr {
            if def_count[*dst as usize] == 1 {
                const_val[*dst as usize] = Some(*v);
            }
        }
    }
    let mut changed = false;
    for instr in &mut p.instrs {
        if let Instr::BinF { op, dst, a, b } = *instr {
            let (ka, kb) = (const_val[a as usize], const_val[b as usize]);
            *instr = match (ka, kb) {
                (Some(x), Some(y)) => {
                    stats.consts_folded += 1;
                    Instr::ConstF {
                        dst,
                        v: fbin_scalar(op, x, y),
                    }
                }
                (None, Some(k)) => {
                    stats.fused_const += 1;
                    Instr::BinFK { op, dst, a, k }
                }
                (Some(k), None) => {
                    stats.fused_const += 1;
                    if commutes(op) {
                        Instr::BinFK { op, dst, a: b, k }
                    } else {
                        Instr::BinKF { op, dst, k, a: b }
                    }
                }
                (None, None) => continue,
            };
            changed = true;
        }
    }
    changed
}

/// Use-count dead-code elimination to fixpoint: drops pure instructions
/// whose destination is never read (plus self-movs). Removal cascades —
/// deleting a reader can orphan its operands' defs. A row lookup loses
/// each unread column, and goes once none is left.
fn dce(p: &mut Program, stats: &mut OptStats) -> bool {
    let n = p.instrs.len();
    let mut keep = vec![true; n];
    let mut trimmed = false;
    loop {
        let mut reads_f = vec![0u32; p.n_fregs];
        let mut reads_b = vec![0u32; p.n_bregs];
        let mut reads_i = vec![0u32; p.n_iregs];
        for (pc, instr) in p.instrs.iter().enumerate() {
            if !keep[pc] {
                continue;
            }
            for_each_use(instr, |cls, r| {
                match cls {
                    RegClass::F => reads_f[r as usize] += 1,
                    RegClass::B => reads_b[r as usize] += 1,
                    RegClass::I => reads_i[r as usize] += 1,
                };
            });
        }
        let mut any = false;
        for (pc, instr) in p.instrs.iter_mut().enumerate() {
            if !keep[pc] || has_side_effect(instr) {
                continue;
            }
            if let Instr::LutRow { outs, .. } = instr {
                if outs.iter().any(|&(_, d)| reads_f[d as usize] == 0) {
                    *outs = outs
                        .iter()
                        .copied()
                        .filter(|&(_, d)| reads_f[d as usize] > 0)
                        .collect();
                    trimmed = true;
                }
            }
            let self_mov = matches!(
                instr,
                Instr::MovF { dst, src } | Instr::MovB { dst, src } | Instr::MovI { dst, src }
                    if dst == src
            );
            // Every pure instruction defines a register; an emptied row
            // defines none and is dead with the rest.
            let mut dead = true;
            for_each_def(instr, |cls, d| {
                let reads = match cls {
                    RegClass::F => &reads_f,
                    RegClass::B => &reads_b,
                    RegClass::I => &reads_i,
                };
                dead &= reads[d as usize] == 0;
            });
            if dead || self_mov {
                keep[pc] = false;
                any = true;
                stats.instrs_removed += 1;
                if matches!(
                    instr,
                    Instr::MovF { .. } | Instr::MovB { .. } | Instr::MovI { .. }
                ) {
                    stats.movs_removed += 1;
                }
            }
        }
        if !any {
            break;
        }
    }
    if keep.iter().all(|&k| k) {
        return trimmed;
    }
    retain_instrs(p, &keep);
    true
}

/// Renumbers one register file with a linear-scan allocator. Live
/// intervals span every textual occurrence of a register; any interval
/// overlapping a loop (a backward jump's `[target, pc]` span) is widened
/// to cover the whole loop, which conservatively accounts for values
/// carried across the backedge. Returns `(old, new)` file sizes.
fn compact_class(p: &mut Program, cls: RegClass) -> (usize, usize) {
    let old_n = match cls {
        RegClass::F => p.n_fregs,
        RegClass::B => p.n_bregs,
        RegClass::I => p.n_iregs,
    };
    let mut start = vec![usize::MAX; old_n];
    let mut end = vec![0usize; old_n];
    for (pc, instr) in p.instrs.iter().enumerate() {
        let mut occur = |r: u16| {
            let r = r as usize;
            start[r] = start[r].min(pc);
            end[r] = end[r].max(pc);
        };
        for_each_def(instr, |c, d| {
            if c == cls {
                occur(d);
            }
        });
        for_each_use(instr, |c, r| {
            if c == cls {
                occur(r);
            }
        });
    }
    let mut loops = Vec::new();
    for (pc, instr) in p.instrs.iter().enumerate() {
        if let Instr::Jump { target } | Instr::JumpIfNot { target, .. } = instr {
            let t = *target as usize;
            if t <= pc {
                loops.push((t, pc));
            }
        }
    }
    loop {
        let mut widened = false;
        for &(lo, hi) in &loops {
            for r in 0..old_n {
                if start[r] == usize::MAX || start[r] > hi || end[r] < lo {
                    continue;
                }
                if start[r] > lo {
                    start[r] = lo;
                    widened = true;
                }
                if end[r] < hi {
                    end[r] = hi;
                    widened = true;
                }
            }
        }
        if !widened {
            break;
        }
    }
    let mut order: Vec<usize> = (0..old_n).filter(|&r| start[r] != usize::MAX).collect();
    order.sort_by_key(|&r| (start[r], end[r]));
    let mut assign = vec![0u16; old_n];
    // Max-heaps over `Reverse` give "earliest end" / "lowest slot" pops.
    let mut active: BinaryHeap<std::cmp::Reverse<(usize, u16)>> = BinaryHeap::new();
    let mut free: BinaryHeap<std::cmp::Reverse<u16>> = BinaryHeap::new();
    let mut next_slot: u16 = 0;
    for &r in &order {
        while let Some(&std::cmp::Reverse((e, s))) = active.peek() {
            if e < start[r] {
                active.pop();
                free.push(std::cmp::Reverse(s));
            } else {
                break;
            }
        }
        let slot = match free.pop() {
            Some(std::cmp::Reverse(s)) => s,
            None => {
                let s = next_slot;
                next_slot += 1;
                s
            }
        };
        assign[r] = slot;
        active.push(std::cmp::Reverse((end[r], slot)));
    }
    for instr in &mut p.instrs {
        for_each_reg_mut(instr, |c, r| {
            if c == cls {
                *r = assign[*r as usize];
            }
        });
    }
    let new_n = next_slot as usize;
    match cls {
        RegClass::F => p.n_fregs = new_n,
        RegClass::B => p.n_bregs = new_n,
        RegClass::I => p.n_iregs = new_n,
    }
    (old_n, new_n)
}

/// Optimizes a compiled program in place and reports what changed.
///
/// Semantics are preserved bit-for-bit: every rewrite either renames
/// registers, deletes computation whose result is provably never
/// observed, or replaces an instruction pair with a superinstruction the
/// engine evaluates with the exact same float operations in the same
/// order.
pub fn optimize_program(p: &mut Program) -> OptStats {
    let mut stats = OptStats {
        instrs_before: p.instrs.len() as u64,
        ..OptStats::default()
    };
    // Rewrites enable each other (DCE exposes new adjacent pairs, fusion
    // orphans temps, ...); iterate the sequence to a bounded fixpoint.
    for _ in 0..8 {
        let mut changed = false;
        changed |= copy_propagate(p);
        changed |= fuse_peepholes(p, &mut stats);
        changed |= fuse_const_operands(p, &mut stats);
        changed |= dce(p, &mut stats);
        if !changed {
            break;
        }
    }
    let (of, nf) = compact_class(p, RegClass::F);
    let (ob, nb) = compact_class(p, RegClass::B);
    let (oi, ni) = compact_class(p, RegClass::I);
    stats.fregs_freed = (of - nf) as u64;
    stats.bregs_freed = (ob - nb) as u64;
    stats.iregs_freed = (oi - ni) as u64;
    stats.instrs_after = p.instrs.len() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::LutInterp;

    fn program(instrs: Vec<Instr>, n_fregs: usize, n_bregs: usize, n_iregs: usize) -> Program {
        Program {
            instrs,
            n_fregs,
            n_bregs,
            n_iregs,
            state_vars: vec!["x".into(), "y".into()],
            ext_vars: vec!["Vm".into()],
            params: vec![],
            lut_tables: vec![],
            parent_vars: vec![],
        }
    }

    #[test]
    fn mul_add_pair_fuses_to_fma() {
        let mut p = program(
            vec![
                Instr::LoadState { dst: 0, var: 0 },
                Instr::LoadState { dst: 1, var: 1 },
                Instr::BinF {
                    op: FBin::Mul,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                Instr::BinF {
                    op: FBin::Add,
                    dst: 3,
                    a: 2,
                    b: 0,
                },
                Instr::StoreState { src: 3, var: 0 },
                // Second uses of both loads keep load-op fusion away so
                // the Mul+Add peephole is what fires.
                Instr::StoreState { src: 1, var: 1 },
                Instr::Ret,
            ],
            4,
            0,
            0,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.fused_fma, 1);
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::FmaF { .. })));
        assert!(!p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::BinF { op: FBin::Mul, .. })));
    }

    #[test]
    fn copy_prop_then_dce_removes_movs() {
        // f1 = f0; f2 = f1 + f1; store f2  =>  mov dead after copy prop.
        let mut p = program(
            vec![
                Instr::LoadState { dst: 0, var: 0 },
                Instr::MovF { dst: 1, src: 0 },
                Instr::BinF {
                    op: FBin::Add,
                    dst: 2,
                    a: 1,
                    b: 1,
                },
                Instr::StoreState { src: 2, var: 0 },
                Instr::Ret,
            ],
            3,
            0,
            0,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.movs_removed, 1);
        assert!(!p.instrs.iter().any(|i| matches!(i, Instr::MovF { .. })));
        // Registers compact: only the load dst and add dst remain... and
        // the add reads the load, so two intervals overlap -> 2 regs.
        assert_eq!(p.n_fregs, 2);
    }

    #[test]
    fn const_operand_fuses_and_const_def_dies() {
        let mut p = program(
            vec![
                Instr::ConstF { dst: 0, v: 2.5 },
                Instr::LoadState { dst: 1, var: 0 },
                Instr::BinF {
                    op: FBin::Sub,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                Instr::StoreState { src: 2, var: 0 },
                Instr::Ret,
            ],
            3,
            0,
            0,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.fused_const, 1);
        // Const on the left of a Sub must keep operand order.
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::BinKF { op: FBin::Sub, k, .. } if *k == 2.5)));
        assert!(!p.instrs.iter().any(|i| matches!(i, Instr::ConstF { .. })));
    }

    #[test]
    fn two_const_operands_fold() {
        let mut p = program(
            vec![
                Instr::ConstF { dst: 0, v: 2.0 },
                Instr::ConstF { dst: 1, v: 3.0 },
                Instr::BinF {
                    op: FBin::Mul,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                Instr::StoreState { src: 2, var: 0 },
                Instr::Ret,
            ],
            3,
            0,
            0,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.consts_folded, 1);
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::ConstF { v, .. } if *v == 6.0)));
        assert_eq!(p.n_fregs, 1);
    }

    #[test]
    fn load_feeding_one_binop_fuses() {
        let mut p = program(
            vec![
                Instr::LoadExt { dst: 0, var: 0 },
                Instr::LoadState { dst: 1, var: 0 },
                Instr::BinF {
                    op: FBin::Sub,
                    dst: 2,
                    a: 1,
                    b: 0,
                },
                Instr::StoreState { src: 2, var: 0 },
                Instr::Ret,
            ],
            3,
            0,
            0,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.fused_loadop, 1);
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::LoadStateOp { op: FBin::Sub, .. })));
    }

    #[test]
    fn fusion_blocked_when_jump_targets_second_half() {
        let mut p = program(
            vec![
                Instr::ConstB { dst: 0, v: true },
                Instr::JumpIfNot { cond: 0, target: 3 },
                Instr::BinF {
                    op: FBin::Mul,
                    dst: 1,
                    a: 0,
                    b: 0,
                },
                // Jump target: must stay addressable, so no fusion with
                // the Mul above.
                Instr::BinF {
                    op: FBin::Add,
                    dst: 2,
                    a: 1,
                    b: 1,
                },
                Instr::StoreState { src: 2, var: 0 },
                Instr::Ret,
            ],
            3,
            1,
            0,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.fused_fma, 0);
    }

    #[test]
    fn jump_targets_remap_after_deletion() {
        // Dead const sits between a conditional jump and its target.
        let mut p = program(
            vec![
                Instr::ConstB { dst: 0, v: false },
                Instr::JumpIfNot { cond: 0, target: 3 },
                Instr::ConstF { dst: 0, v: 9.0 }, // dead
                Instr::LoadState { dst: 1, var: 0 },
                Instr::StoreState { src: 1, var: 1 },
                Instr::Ret,
            ],
            2,
            1,
            0,
        );
        optimize_program(&mut p);
        // The dead const is gone and the jump still lands on the load.
        assert!(!p.instrs.iter().any(|i| matches!(i, Instr::ConstF { .. })));
        let Instr::JumpIfNot { target, .. } = p.instrs[1] else {
            panic!("expected JumpIfNot, got {:?}", p.instrs[1]);
        };
        assert!(matches!(p.instrs[target as usize], Instr::LoadState { .. }));
    }

    #[test]
    fn loop_carried_register_not_clobbered_by_compaction() {
        // i0 counts 0..3; f0 accumulates across the backedge while f1 is
        // a loop-body temp. A naive allocator could overlap them.
        let mut p = program(
            vec![
                Instr::ConstF { dst: 0, v: 0.0 }, // acc
                Instr::ConstI { dst: 0, v: 0 },   // iv
                Instr::ConstI { dst: 1, v: 3 },   // limit
                Instr::ConstI { dst: 2, v: 1 },   // step
                // loop head (pc 4)
                Instr::CmpI {
                    pred: limpet_ir::CmpIPred::Slt,
                    dst: 0,
                    a: 0,
                    b: 1,
                },
                Instr::JumpIfNot {
                    cond: 0,
                    target: 10,
                },
                Instr::LoadState { dst: 1, var: 0 }, // temp
                Instr::BinF {
                    op: FBin::Add,
                    dst: 0,
                    a: 0,
                    b: 1,
                },
                Instr::BinI {
                    op: crate::bytecode::IBin::Add,
                    dst: 0,
                    a: 0,
                    b: 2,
                },
                Instr::Jump { target: 4 },
                Instr::StoreState { src: 0, var: 1 }, // pc 10
                Instr::Ret,
            ],
            2,
            1,
            3,
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.instrs_after as usize, p.instrs.len());
        // All three integer registers are live across the backedge, so
        // the conservative loop widening must keep them apart.
        assert_eq!(p.n_iregs, 3);
        // The backward jump still lands on the loop head (the compare).
        let back = p
            .instrs
            .iter()
            .enumerate()
            .find_map(|(pc, i)| match i {
                Instr::Jump { target } if (*target as usize) <= pc => Some(*target as usize),
                _ => None,
            })
            .expect("backward jump survived");
        assert!(matches!(p.instrs[back], Instr::CmpI { .. }));
    }

    /// `f0 = Vm; f1..=fN = row(f0)` in mode `interp`, then `rest`.
    fn row_program(
        interp: LutInterp,
        outs: &[(u16, u16)],
        rest: Vec<Instr>,
        n_fregs: usize,
    ) -> Program {
        let mut instrs = vec![
            Instr::LoadExt { dst: 0, var: 0 },
            Instr::LutRow {
                table: 0,
                key: 0,
                interp,
                outs: outs.into(),
            },
        ];
        instrs.extend(rest);
        instrs.push(Instr::Ret);
        program(instrs, n_fregs, 0, 0)
    }

    fn rows_of(p: &Program) -> Vec<(u16, Vec<(u16, u16)>)> {
        p.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::LutRow { key, outs, .. } => Some((*key, outs.to_vec())),
                _ => None,
            })
            .collect()
    }

    /// The linear row modes: the vector pipelines' and the baseline's.
    const LINEAR: [LutInterp; 2] = [LutInterp::Vec, LutInterp::Scalar];

    #[test]
    fn unused_column_is_dropped_from_its_row() {
        for interp in LINEAR {
            let mut p = row_program(
                interp,
                &[(0, 1), (1, 2), (2, 3)],
                vec![
                    Instr::StoreState { src: 1, var: 0 },
                    Instr::StoreState { src: 3, var: 1 },
                ],
                4,
            );
            let stats = optimize_program(&mut p);
            let rows = rows_of(&p);
            assert_eq!(rows.len(), 1, "{interp:?}");
            let cols: Vec<u16> = rows[0].1.iter().map(|&(col, _)| col).collect();
            assert_eq!(cols, [0, 2], "{interp:?}: column 1 fed nothing");
            // A column is not an instruction: nothing was deleted.
            assert_eq!(stats.instrs_removed, 0, "{interp:?}");
            assert_eq!(p.n_fregs, 3, "{interp:?}");
        }
    }

    #[test]
    fn row_with_no_live_column_disappears_with_its_key() {
        for interp in LINEAR {
            let mut p = row_program(
                interp,
                &[(0, 1), (1, 2)],
                vec![
                    Instr::LoadState { dst: 3, var: 0 },
                    Instr::StoreState { src: 3, var: 1 },
                ],
                4,
            );
            let stats = optimize_program(&mut p);
            assert!(rows_of(&p).is_empty(), "{interp:?}");
            assert!(!p.instrs.iter().any(|i| matches!(i, Instr::LoadExt { .. })));
            assert_eq!(
                stats.instrs_removed, 2,
                "{interp:?}: the row and the key's load"
            );
        }
    }

    #[test]
    fn compaction_keeps_row_destinations_apart_from_the_key_and_each_other() {
        // The key dies at the row and every column is born there: an
        // allocator that freed the key's slot first would hand it to a
        // column, and the per-column native expansion would then read a
        // clobbered key.
        let mut p = row_program(
            LutInterp::Scalar,
            &[(0, 5), (1, 6), (2, 7)],
            vec![
                Instr::BinF {
                    op: FBin::Mul,
                    dst: 8,
                    a: 5,
                    b: 6,
                },
                Instr::BinF {
                    op: FBin::Sub,
                    dst: 9,
                    a: 8,
                    b: 7,
                },
                Instr::StoreState { src: 9, var: 0 },
            ],
            10,
        );
        optimize_program(&mut p);
        let rows = rows_of(&p);
        let (key, outs) = &rows[0];
        let mut regs: Vec<u16> = outs.iter().map(|&(_, dst)| dst).collect();
        regs.push(*key);
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), 4, "key and three columns in four registers");
        assert!(p.n_fregs < 10, "compaction ran");
    }
}
