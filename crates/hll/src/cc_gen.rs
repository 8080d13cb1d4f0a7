//! The condition-code machine backend: HIR → [`mips_ccm::CcProgram`].
//!
//! This is the "conventional machine" compiler of §2.3: conditional
//! control flow goes through the flags, and boolean values are built with
//! one of the paper's three strategies (Figures 1 and 2):
//!
//! * [`CcBoolStrategy::FullEval`] — both operands of every connective are
//!   evaluated; flag-setting compares steer stores of 0/1 (Figure 1,
//!   left);
//! * [`CcBoolStrategy::EarlyOut`] — short-circuit branching (Figure 1,
//!   right);
//! * [`CcBoolStrategy::CondSet`] — the M68000 `scc` discipline: compares
//!   followed by conditional sets and logical combination, no branches
//!   (Figure 2). Requires a policy with conditional set.
//!
//! Data layout is uniformly word-allocated (the CC baseline exists for the
//! condition-code comparisons, not the byte-addressing study).

use crate::error::CompileError;
use crate::hir::*;
use mips_ccm::{
    CcAddr, CcAluOp, CcCond, CcInstr, CcLabel, CcOperand, CcProgram, CcProgramBuilder, CcReg,
};
use std::collections::HashMap;

/// Re-exported target type alias used by the analysis crate.
pub type CcTarget = mips_ccm::CcProgram;

const TEMPS: [CcReg; 6] = [0, 1, 2, 3, 4, 5];
const FP: CcReg = 6;
const SP: CcReg = 7;
const GLOBAL_BASE: u32 = 0x1000;

/// Boolean-evaluation strategy (Tables 5–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcBoolStrategy {
    /// Full evaluation with branches (Figure 1, left).
    FullEval,
    /// Early-out branching (Figure 1, right).
    #[default]
    EarlyOut,
    /// Conditional set, branch-free values (Figure 2).
    CondSet,
}

/// Backend options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcGenOptions {
    /// The boolean strategy.
    pub strategy: CcBoolStrategy,
}

/// Compiles a source program for the condition-code machine.
///
/// # Errors
///
/// Front-end errors, and an expression too deep for the temporary
/// pool.
pub fn compile_cc(src: &str, opts: &CcGenOptions) -> Result<CcProgram, CompileError> {
    let prog = crate::front_end(src)?;
    gen_cc(&prog, opts)
}

/// Word-allocated size (packed ignored: the CC baseline is word
/// allocated).
fn size_words(ty: &Ty) -> u32 {
    match ty {
        Ty::Int | Ty::Char | Ty::Bool => 1,
        Ty::Array(a) => a.count() * size_words(&a.elem),
    }
}

/// Generates CC-machine code for a checked program.
///
/// # Errors
///
/// A [`CompileError`] naming the temporary pool when an expression
/// needs more than its six registers at once.
pub fn gen_cc(prog: &HProgram, opts: &CcGenOptions) -> Result<CcProgram, CompileError> {
    let mut g = CcGen {
        prog,
        opts: *opts,
        b: CcProgramBuilder::new(),
        routine_labels: Vec::new(),
        global_addr: Vec::new(),
        free: TEMPS.iter().rev().copied().collect(),
        local_slot: Vec::new(),
        used_slots: 0,
        result_slot: None,
        routine: 0,
        pending: Vec::new(),
        exhausted: false,
    };
    g.program();
    if g.exhausted {
        return Err(CompileError::new(
            0,
            "expression too complex: the 6-register CC temporary pool is exhausted",
        ));
    }
    Ok(g.b.finish().expect("generated labels are consistent"))
}

struct CcGen<'p> {
    prog: &'p HProgram,
    opts: CcGenOptions,
    b: CcProgramBuilder,
    routine_labels: Vec<CcLabel>,
    global_addr: Vec<u32>,
    free: Vec<CcReg>,
    local_slot: Vec<i32>,
    used_slots: i32,
    result_slot: Option<i32>,
    routine: usize,
    /// Saved live-register sets around calls.
    pending: Vec<Vec<CcReg>>,
    /// An `acquire` found the temporary pool empty.
    exhausted: bool,
}

impl<'p> CcGen<'p> {
    fn acquire(&mut self) -> CcReg {
        // On exhaustion, record it and hand back a stand-in so
        // generation can finish; `gen_cc` reports the error.
        self.free.pop().unwrap_or_else(|| {
            self.exhausted = true;
            TEMPS[0]
        })
    }

    fn release(&mut self, r: CcReg) {
        if TEMPS.contains(&r) && !self.free.contains(&r) {
            self.free.push(r);
        }
    }

    fn live(&self) -> Vec<CcReg> {
        TEMPS
            .iter()
            .copied()
            .filter(|r| !self.free.contains(r))
            .collect()
    }

    fn emit(&mut self, i: CcInstr) {
        self.b.push(i);
    }

    fn program(&mut self) {
        // Global layout.
        let mut addr = GLOBAL_BASE;
        for gv in &self.prog.globals {
            self.global_addr.push(addr);
            addr += size_words(&gv.ty);
        }
        for _ in 0..self.prog.routines.len() {
            let l = self.b.fresh_label();
            self.routine_labels.push(l);
        }
        self.b.define_symbol("__start");
        self.emit(CcInstr::Call {
            target: mips_ccm::CcTarget::Label(self.routine_labels[self.prog.main]),
        });
        self.emit(CcInstr::Halt);
        for i in 0..self.prog.routines.len() {
            self.gen_routine(i);
        }
    }

    fn gen_routine(&mut self, idx: usize) {
        self.routine = idx;
        let r = &self.prog.routines[idx];
        self.free = TEMPS.iter().rev().copied().collect();
        self.local_slot.clear();
        self.used_slots = 0;
        self.result_slot = None;

        let mut used = 0i32;
        for l in &r.locals {
            used += size_words(&l.ty) as i32;
            self.local_slot.push(-used);
        }
        self.used_slots = used;
        if r.ret.is_some() {
            self.used_slots += 1;
            self.result_slot = Some(-self.used_slots);
        }

        self.b.define_symbol(r.name.clone());
        let entry = self.routine_labels[idx];
        self.b.define(entry).expect("unique routine labels");
        // Prologue: push fp; fp := sp; sp -= frame.
        self.emit(CcInstr::Push { src: FP });
        self.emit(CcInstr::MoveReg { src: SP, dst: FP });
        // The frame size must cover for-limit slots allocated during body
        // generation; reserve generously by scanning for `for` statements.
        let fors = count_fors(&r.body);
        let frame = self.used_slots + fors as i32;
        if frame > 0 {
            self.emit(CcInstr::Alu {
                op: CcAluOp::Sub,
                src: CcOperand::Imm(frame),
                dst: SP,
            });
        }
        let body = r.body.clone();
        self.stmts(&body);
        // Epilogue.
        if let Some(slot) = self.result_slot {
            self.emit(CcInstr::Load {
                addr: CcAddr::fp(slot),
                dst: 0,
            });
        }
        self.emit(CcInstr::MoveReg { src: FP, dst: SP });
        self.emit(CcInstr::Pop { dst: FP });
        self.emit(CcInstr::Ret);
    }

    fn alloc_slot(&mut self) -> i32 {
        self.used_slots += 1;
        -self.used_slots
    }

    // ---- addressing ----

    /// Resolves an lvalue to (address, temps-to-release).
    fn addr_of(&mut self, lv: &HLValue) -> (CcAddr, Vec<CcReg>) {
        let mut temps = Vec::new();
        let (mut addr, deref) = match lv.base {
            VarRef::Global(i) => (CcAddr::abs(self.global_addr[i]), false),
            VarRef::Local(i) => (CcAddr::fp(self.local_slot[i]), false),
            VarRef::Param(i) => {
                let a = CcAddr::fp(1 + i as i32);
                if lv.by_ref {
                    let t = self.acquire();
                    self.emit(CcInstr::Load { addr: a, dst: t });
                    temps.push(t);
                    (
                        CcAddr {
                            base: mips_ccm::CcBase::Reg(t),
                            disp: 0,
                            index: None,
                        },
                        true,
                    )
                } else {
                    (a, false)
                }
            }
        };
        let _ = deref;
        let mut dynreg: Option<CcReg> = None;
        for ix in &lv.indices {
            let stride = size_words(&ix.arr.elem) as i32;
            if let Some(k) = const_of(&ix.expr) {
                addr.disp += (k - ix.arr.lo) * stride;
                continue;
            }
            let v = self.eval(&ix.expr);
            if ix.arr.lo != 0 {
                self.emit(CcInstr::Alu {
                    op: CcAluOp::Sub,
                    src: CcOperand::Imm(ix.arr.lo),
                    dst: v,
                });
            }
            if stride != 1 {
                self.emit(CcInstr::Alu {
                    op: CcAluOp::Mul,
                    src: CcOperand::Imm(stride),
                    dst: v,
                });
            }
            match dynreg {
                None => dynreg = Some(v),
                Some(d) => {
                    self.emit(CcInstr::Alu {
                        op: CcAluOp::Add,
                        src: CcOperand::Reg(v),
                        dst: d,
                    });
                    self.release(v);
                }
            }
        }
        if let Some(d) = dynreg {
            addr.index = Some(d);
            temps.push(d);
        }
        (addr, temps)
    }

    fn load_lv(&mut self, lv: &HLValue) -> CcReg {
        let (addr, temps) = self.addr_of(lv);
        let dst = self.acquire();
        self.emit(CcInstr::Load { addr, dst });
        for t in temps {
            self.release(t);
        }
        dst
    }

    fn store_lv(&mut self, lv: &HLValue, v: CcReg) {
        let (addr, temps) = self.addr_of(lv);
        self.emit(CcInstr::Store { src: v, addr });
        for t in temps {
            self.release(t);
        }
    }

    // ---- expressions ----

    fn eval(&mut self, e: &HExpr) -> CcReg {
        match e {
            HExpr::Int(_) | HExpr::Char(_) | HExpr::Bool(_) => {
                let dst = self.acquire();
                self.emit(CcInstr::MoveImm {
                    imm: const_of(e).unwrap(),
                    dst,
                });
                dst
            }
            HExpr::Load(lv) => self.load_lv(lv),
            HExpr::Neg(a) => {
                let v = self.eval(a);
                self.emit(CcInstr::Alu {
                    op: CcAluOp::Neg,
                    src: CcOperand::Imm(0),
                    dst: v,
                });
                v
            }
            HExpr::Not(a) => {
                let v = self.eval(a);
                self.emit(CcInstr::Alu {
                    op: CcAluOp::NotB,
                    src: CcOperand::Imm(0),
                    dst: v,
                });
                v
            }
            HExpr::Ord(a) => self.eval(a),
            HExpr::Chr(a) => {
                let v = self.eval(a);
                self.emit(CcInstr::Alu {
                    op: CcAluOp::And,
                    src: CcOperand::Imm(0xff),
                    dst: v,
                });
                v
            }
            HExpr::Bin { op, a, b } => {
                // Keep constants in the immediate field: swap commutative
                // operands so the constant lands on the right (saves a
                // temporary — important for deep index expressions).
                let (a, b) = if const_of(a).is_some()
                    && const_of(b).is_none()
                    && matches!(op, HBinOp::Add | HBinOp::Mul)
                {
                    (b, a)
                } else {
                    (a, b)
                };
                let va = self.eval(a);
                let src = match const_of(b) {
                    Some(k) => CcOperand::Imm(k),
                    None => {
                        let vb = self.eval(b);
                        CcOperand::Reg(vb)
                    }
                };
                let cop = match op {
                    HBinOp::Add => CcAluOp::Add,
                    HBinOp::Sub => CcAluOp::Sub,
                    HBinOp::Mul => CcAluOp::Mul,
                    HBinOp::Div => CcAluOp::Div,
                    HBinOp::Mod => CcAluOp::Rem,
                };
                self.emit(CcInstr::Alu {
                    op: cop,
                    src,
                    dst: va,
                });
                if let CcOperand::Reg(r) = src {
                    self.release(r);
                }
                va
            }
            HExpr::Rel { .. } | HExpr::BoolBin { .. } => self.bool_value(e),
            HExpr::Call { routine, args, .. } => {
                self.gen_call(*routine, args);
                let dst = self.acquire();
                self.emit(CcInstr::MoveReg { src: 0, dst });
                self.restore_after_call();
                dst
            }
        }
    }

    /// Boolean value under the selected strategy.
    fn bool_value(&mut self, e: &HExpr) -> CcReg {
        match self.opts.strategy {
            CcBoolStrategy::CondSet => self.cond_set_value(e),
            CcBoolStrategy::EarlyOut => {
                // Figure 1, right: assume true, early-out to done.
                let dst = self.acquire();
                let done = self.b.fresh_label();
                self.emit(CcInstr::MoveImm { imm: 1, dst });
                self.branch_cond(e, done, true);
                self.emit(CcInstr::MoveImm { imm: 0, dst });
                self.b.define(done).expect("fresh");
                dst
            }
            CcBoolStrategy::FullEval => {
                let dst = self.acquire();
                self.full_eval_value(e, dst);
                dst
            }
        }
    }

    /// Figure 2: compares + conditional sets, no branches.
    fn cond_set_value(&mut self, e: &HExpr) -> CcReg {
        match e {
            HExpr::Rel { op, a, b } => {
                let va = self.eval(a);
                let src = match const_of(b) {
                    Some(k) => CcOperand::Imm(k),
                    None => CcOperand::Reg(self.eval(b)),
                };
                self.emit(CcInstr::Compare { a: va, b: src });
                if let CcOperand::Reg(r) = src {
                    self.release(r);
                }
                self.emit(CcInstr::CondSet {
                    cond: rel_cc(*op),
                    dst: va,
                });
                va
            }
            HExpr::BoolBin { op, a, b } => {
                let va = self.cond_set_value(a);
                let vb = self.cond_set_value(b);
                let cop = match op {
                    HBoolOp::And => CcAluOp::And,
                    HBoolOp::Or => CcAluOp::Or,
                };
                self.emit(CcInstr::Alu {
                    op: cop,
                    src: CcOperand::Reg(vb),
                    dst: va,
                });
                self.release(vb);
                va
            }
            HExpr::Not(a) => {
                let v = self.cond_set_value(a);
                self.emit(CcInstr::Alu {
                    op: CcAluOp::NotB,
                    src: CcOperand::Imm(0),
                    dst: v,
                });
                v
            }
            other => self.eval(other),
        }
    }

    /// Figure 1, left: full evaluation — every operand evaluated,
    /// conditional stores of 1 into `dst`.
    fn full_eval_value(&mut self, e: &HExpr, dst: CcReg) {
        match e {
            HExpr::BoolBin {
                op: HBoolOp::Or, ..
            } => {
                self.emit(CcInstr::MoveImm { imm: 0, dst });
                let mut terms = Vec::new();
                flatten_or(e, &mut terms);
                for t in terms {
                    let skip = self.b.fresh_label();
                    self.compare_term(t, skip, false);
                    self.emit(CcInstr::MoveImm { imm: 1, dst });
                    self.b.define(skip).expect("fresh");
                }
            }
            HExpr::BoolBin {
                op: HBoolOp::And, ..
            } => {
                self.emit(CcInstr::MoveImm { imm: 1, dst });
                let mut terms = Vec::new();
                flatten_and(e, &mut terms);
                for t in terms {
                    let skip = self.b.fresh_label();
                    self.compare_term(t, skip, true);
                    self.emit(CcInstr::MoveImm { imm: 0, dst });
                    self.b.define(skip).expect("fresh");
                }
            }
            HExpr::Rel { .. } => {
                self.emit(CcInstr::MoveImm { imm: 0, dst });
                let skip = self.b.fresh_label();
                self.compare_term(e, skip, false);
                self.emit(CcInstr::MoveImm { imm: 1, dst });
                self.b.define(skip).expect("fresh");
            }
            HExpr::Not(a) => {
                self.full_eval_value(a, dst);
                self.emit(CcInstr::Alu {
                    op: CcAluOp::NotB,
                    src: CcOperand::Imm(0),
                    dst,
                });
            }
            other => {
                let v = self.eval(other);
                self.emit(CcInstr::MoveReg { src: v, dst });
                self.release(v);
            }
        }
    }

    /// Evaluates one boolean term and branches to `skip` when the term is
    /// `skip_when`.
    fn compare_term(&mut self, e: &HExpr, skip: CcLabel, skip_when: bool) {
        match e {
            HExpr::Rel { op, a, b } => {
                let va = self.eval(a);
                let src = match const_of(b) {
                    Some(k) => CcOperand::Imm(k),
                    None => CcOperand::Reg(self.eval(b)),
                };
                self.emit(CcInstr::Compare { a: va, b: src });
                if let CcOperand::Reg(r) = src {
                    self.release(r);
                }
                self.release(va);
                let cond = if skip_when {
                    rel_cc(*op)
                } else {
                    rel_cc(*op).negate()
                };
                self.emit(CcInstr::CondBranch {
                    cond,
                    target: mips_ccm::CcTarget::Label(skip),
                });
            }
            other => {
                let v = self.eval(other);
                self.emit(CcInstr::Compare {
                    a: v,
                    b: CcOperand::Imm(0),
                });
                self.release(v);
                let cond = if skip_when { CcCond::Ne } else { CcCond::Eq };
                self.emit(CcInstr::CondBranch {
                    cond,
                    target: mips_ccm::CcTarget::Label(skip),
                });
            }
        }
    }

    /// Branches to `target` when `e == sense` (early-out over
    /// connectives).
    fn branch_cond(&mut self, e: &HExpr, target: CcLabel, sense: bool) {
        match e {
            HExpr::Bool(v) => {
                if *v == sense {
                    self.emit(CcInstr::Branch {
                        target: mips_ccm::CcTarget::Label(target),
                    });
                }
            }
            HExpr::Not(a) => self.branch_cond(a, target, !sense),
            HExpr::BoolBin { op, a, b } => {
                let both = match op {
                    HBoolOp::And => !sense,
                    HBoolOp::Or => sense,
                };
                if both {
                    self.branch_cond(a, target, sense);
                    self.branch_cond(b, target, sense);
                } else {
                    let skip = self.b.fresh_label();
                    self.branch_cond(a, skip, !sense);
                    self.branch_cond(b, target, sense);
                    self.b.define(skip).expect("fresh");
                }
            }
            HExpr::Rel { op, a, b } => {
                let va = self.eval(a);
                let src = match const_of(b) {
                    Some(k) => CcOperand::Imm(k),
                    None => CcOperand::Reg(self.eval(b)),
                };
                self.emit(CcInstr::Compare { a: va, b: src });
                if let CcOperand::Reg(r) = src {
                    self.release(r);
                }
                self.release(va);
                let cond = if sense {
                    rel_cc(*op)
                } else {
                    rel_cc(*op).negate()
                };
                self.emit(CcInstr::CondBranch {
                    cond,
                    target: mips_ccm::CcTarget::Label(target),
                });
            }
            other => {
                let v = self.eval(other);
                self.emit(CcInstr::Compare {
                    a: v,
                    b: CcOperand::Imm(0),
                });
                self.release(v);
                let cond = if sense { CcCond::Ne } else { CcCond::Eq };
                self.emit(CcInstr::CondBranch {
                    cond,
                    target: mips_ccm::CcTarget::Label(target),
                });
            }
        }
    }

    /// The control-context condition under the selected strategy.
    fn control_cond(&mut self, e: &HExpr, target: CcLabel, sense: bool) {
        match self.opts.strategy {
            CcBoolStrategy::EarlyOut => self.branch_cond(e, target, sense),
            CcBoolStrategy::FullEval | CcBoolStrategy::CondSet => {
                // Build the value, then a single test-and-branch — unless
                // the expression is a bare comparison (no connectives),
                // where compare-and-branch is the natural code under every
                // strategy.
                if let HExpr::Rel { .. } = e {
                    self.branch_cond(e, target, sense);
                    return;
                }
                let v = self.bool_value(e);
                self.emit(CcInstr::Compare {
                    a: v,
                    b: CcOperand::Imm(0),
                });
                self.release(v);
                let cond = if sense { CcCond::Ne } else { CcCond::Eq };
                self.emit(CcInstr::CondBranch {
                    cond,
                    target: mips_ccm::CcTarget::Label(target),
                });
            }
        }
    }

    // ---- calls ----

    fn gen_call(&mut self, routine: usize, args: &[HArg]) {
        let live = self.live();
        for &r in &live {
            self.emit(CcInstr::Push { src: r });
        }
        self.pending.push(live);
        // Push args in reverse so arg 0 lands on top (fp+1+0 after the
        // callee's fp push).
        let mut vals: Vec<CcReg> = Vec::new();
        for a in args {
            let v = match a {
                HArg::Value(e) => self.eval(e),
                HArg::Ref(lv) => {
                    let (addr, temps) = self.addr_of(lv);
                    let t = self.acquire();
                    // Effective address: base + disp + index.
                    match addr.base {
                        mips_ccm::CcBase::Abs(x) => self.emit(CcInstr::MoveImm {
                            imm: x as i32 + addr.disp,
                            dst: t,
                        }),
                        mips_ccm::CcBase::Reg(r) => {
                            self.emit(CcInstr::MoveReg { src: r, dst: t });
                            if addr.disp != 0 {
                                self.emit(CcInstr::Alu {
                                    op: CcAluOp::Add,
                                    src: CcOperand::Imm(addr.disp),
                                    dst: t,
                                });
                            }
                        }
                    }
                    if let Some(x) = addr.index {
                        self.emit(CcInstr::Alu {
                            op: CcAluOp::Add,
                            src: CcOperand::Reg(x),
                            dst: t,
                        });
                    }
                    for tmp in temps {
                        self.release(tmp);
                    }
                    t
                }
            };
            vals.push(v);
        }
        for &v in vals.iter().rev() {
            self.emit(CcInstr::Push { src: v });
        }
        for v in vals {
            self.release(v);
        }
        self.emit(CcInstr::Call {
            target: mips_ccm::CcTarget::Label(self.routine_labels[routine]),
        });
        if !args.is_empty() {
            self.emit(CcInstr::Alu {
                op: CcAluOp::Add,
                src: CcOperand::Imm(args.len() as i32),
                dst: SP,
            });
        }
    }

    fn restore_after_call(&mut self) {
        let live = self.pending.pop().expect("unbalanced restore");
        for &r in live.iter().rev() {
            self.emit(CcInstr::Pop { dst: r });
        }
    }

    // ---- statements ----

    fn stmts(&mut self, ss: &[HStmt]) {
        for s in ss {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &HStmt) {
        match s {
            HStmt::Assign(lv, e) => {
                let v = self.eval(e);
                self.store_lv(lv, v);
                self.release(v);
            }
            HStmt::SetResult(e) => {
                let v = self.eval(e);
                let slot = self.result_slot.expect("function context");
                self.emit(CcInstr::Store {
                    src: v,
                    addr: CcAddr::fp(slot),
                });
                self.release(v);
            }
            HStmt::If { cond, then, els } => {
                if els.is_empty() {
                    let lend = self.b.fresh_label();
                    self.control_cond(cond, lend, false);
                    self.stmts(then);
                    self.b.define(lend).expect("fresh");
                } else {
                    let lelse = self.b.fresh_label();
                    let lend = self.b.fresh_label();
                    self.control_cond(cond, lelse, false);
                    self.stmts(then);
                    self.emit(CcInstr::Branch {
                        target: mips_ccm::CcTarget::Label(lend),
                    });
                    self.b.define(lelse).expect("fresh");
                    self.stmts(els);
                    self.b.define(lend).expect("fresh");
                }
            }
            HStmt::While { cond, body } => {
                let ltop = self.b.fresh_label();
                let lend = self.b.fresh_label();
                self.b.define(ltop).expect("fresh");
                self.control_cond(cond, lend, false);
                self.stmts(body);
                self.emit(CcInstr::Branch {
                    target: mips_ccm::CcTarget::Label(ltop),
                });
                self.b.define(lend).expect("fresh");
            }
            HStmt::Repeat { body, cond } => {
                let ltop = self.b.fresh_label();
                self.b.define(ltop).expect("fresh");
                self.stmts(body);
                self.control_cond(cond, ltop, false);
            }
            HStmt::For {
                var,
                from,
                to,
                down,
                body,
            } => {
                let limit = self.alloc_slot();
                let v = self.eval(from);
                self.store_lv(var, v);
                self.release(v);
                let t = self.eval(to);
                self.emit(CcInstr::Store {
                    src: t,
                    addr: CcAddr::fp(limit),
                });
                self.release(t);
                let ltop = self.b.fresh_label();
                let lend = self.b.fresh_label();
                self.b.define(ltop).expect("fresh");
                let cur = self.load_lv(var);
                let lim = self.acquire();
                self.emit(CcInstr::Load {
                    addr: CcAddr::fp(limit),
                    dst: lim,
                });
                self.emit(CcInstr::Compare {
                    a: cur,
                    b: CcOperand::Reg(lim),
                });
                self.release(lim);
                self.release(cur);
                self.emit(CcInstr::CondBranch {
                    cond: if *down { CcCond::Lt } else { CcCond::Gt },
                    target: mips_ccm::CcTarget::Label(lend),
                });
                self.stmts(body);
                let cur = self.load_lv(var);
                let lim = self.acquire();
                self.emit(CcInstr::Load {
                    addr: CcAddr::fp(limit),
                    dst: lim,
                });
                self.emit(CcInstr::Compare {
                    a: cur,
                    b: CcOperand::Reg(lim),
                });
                self.release(lim);
                self.emit(CcInstr::CondBranch {
                    cond: CcCond::Eq,
                    target: mips_ccm::CcTarget::Label(lend),
                });
                self.emit(CcInstr::Alu {
                    op: if *down { CcAluOp::Sub } else { CcAluOp::Add },
                    src: CcOperand::Imm(1),
                    dst: cur,
                });
                self.store_lv(var, cur);
                self.release(cur);
                self.emit(CcInstr::Branch {
                    target: mips_ccm::CcTarget::Label(ltop),
                });
                self.b.define(lend).expect("fresh");
            }
            HStmt::Call { routine, args } => {
                self.gen_call(*routine, args);
                self.restore_after_call();
            }
            HStmt::Write { args, newline } => {
                for a in args {
                    match a {
                        HWriteArg::Int(e) => {
                            let v = self.eval(e);
                            self.emit(CcInstr::MoveReg { src: v, dst: 0 });
                            self.emit(CcInstr::PutInt);
                            self.release(v);
                        }
                        HWriteArg::Char(e) => {
                            let v = self.eval(e);
                            self.emit(CcInstr::MoveReg { src: v, dst: 0 });
                            self.emit(CcInstr::PutC);
                            self.release(v);
                        }
                        HWriteArg::Str(s) => {
                            for &byte in s {
                                self.emit(CcInstr::MoveImm {
                                    imm: byte as i32,
                                    dst: 0,
                                });
                                self.emit(CcInstr::PutC);
                            }
                        }
                    }
                }
                if *newline {
                    self.emit(CcInstr::MoveImm {
                        imm: b'\n' as i32,
                        dst: 0,
                    });
                    self.emit(CcInstr::PutC);
                }
            }
            HStmt::Block(ss) => self.stmts(ss),
            HStmt::Case {
                selector,
                arms,
                default,
            } => {
                // The conventional machine: a compare chain (its compilers
                // also built tables, but the chain is the baseline shape).
                let lend = self.b.fresh_label();
                let ldef = self.b.fresh_label();
                let arm_labels: Vec<CcLabel> = arms.iter().map(|_| self.b.fresh_label()).collect();
                let v = self.eval(selector);
                for (i, (labels, _)) in arms.iter().enumerate() {
                    for &val in labels {
                        self.emit(CcInstr::Compare {
                            a: v,
                            b: CcOperand::Imm(val),
                        });
                        self.emit(CcInstr::CondBranch {
                            cond: CcCond::Eq,
                            target: mips_ccm::CcTarget::Label(arm_labels[i]),
                        });
                    }
                }
                self.release(v);
                self.emit(CcInstr::Branch {
                    target: mips_ccm::CcTarget::Label(ldef),
                });
                for (i, (_, body)) in arms.iter().enumerate() {
                    self.b.define(arm_labels[i]).expect("fresh");
                    self.stmts(body);
                    self.emit(CcInstr::Branch {
                        target: mips_ccm::CcTarget::Label(lend),
                    });
                }
                self.b.define(ldef).expect("fresh");
                self.stmts(default);
                self.b.define(lend).expect("fresh");
            }
        }
    }
}

fn const_of(e: &HExpr) -> Option<i32> {
    match e {
        HExpr::Int(v) => Some(*v),
        HExpr::Char(c) => Some(*c as i32),
        HExpr::Bool(b) => Some(*b as i32),
        HExpr::Neg(a) => const_of(a).map(|v| -v),
        _ => None,
    }
}

fn rel_cc(op: HRelOp) -> CcCond {
    match op {
        HRelOp::Eq => CcCond::Eq,
        HRelOp::Ne => CcCond::Ne,
        HRelOp::Lt => CcCond::Lt,
        HRelOp::Le => CcCond::Le,
        HRelOp::Gt => CcCond::Gt,
        HRelOp::Ge => CcCond::Ge,
    }
}

fn flatten_or<'e>(e: &'e HExpr, out: &mut Vec<&'e HExpr>) {
    match e {
        HExpr::BoolBin {
            op: HBoolOp::Or,
            a,
            b,
        } => {
            flatten_or(a, out);
            flatten_or(b, out);
        }
        other => out.push(other),
    }
}

fn flatten_and<'e>(e: &'e HExpr, out: &mut Vec<&'e HExpr>) {
    match e {
        HExpr::BoolBin {
            op: HBoolOp::And,
            a,
            b,
        } => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

/// Counts `for` statements (each needs a hidden frame slot).
fn count_fors(ss: &[HStmt]) -> usize {
    let mut n = 0;
    for s in ss {
        n += match s {
            HStmt::For { body, .. } => 1 + count_fors(body),
            HStmt::If { then, els, .. } => count_fors(then) + count_fors(els),
            HStmt::While { body, .. } => count_fors(body),
            HStmt::Repeat { body, .. } => count_fors(body),
            HStmt::Block(ss) => count_fors(ss),
            _ => 0,
        };
    }
    n
}

/// Maps routine names to entry addresses (convenience over
/// [`CcProgram::symbol`]).
pub fn symbol_map(p: &CcProgram) -> HashMap<String, u32> {
    // CcProgram keeps symbols internally; expose main ones via lookups.
    let mut m = HashMap::new();
    for name in ["__start", "main"] {
        if let Some(a) = p.symbol(name) {
            m.insert(name.to_string(), a);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_ccm::{CcMachine, CcPolicy};

    fn run_with(src: &str, strategy: CcBoolStrategy, policy: CcPolicy) -> String {
        let p = compile_cc(src, &CcGenOptions { strategy }).unwrap();
        let mut m = CcMachine::new(p, policy);
        m.run().unwrap();
        m.output_string()
    }

    #[test]
    fn canonical_example_all_strategies_agree() {
        let src = "program t; var found: boolean; rec, key, i: integer;
             begin
               rec := 5; key := 5; i := 13;
               found := (rec = key) or (i = 13);
               writeln(found)
             end.";
        assert_eq!(
            run_with(src, CcBoolStrategy::FullEval, CcPolicy::S360),
            "1\n"
        );
        assert_eq!(
            run_with(src, CcBoolStrategy::EarlyOut, CcPolicy::VAX),
            "1\n"
        );
        assert_eq!(
            run_with(src, CcBoolStrategy::CondSet, CcPolicy::M68000),
            "1\n"
        );
    }

    #[test]
    fn cond_set_output_is_branch_free() {
        let src = "program t; var b: boolean; x: integer;
             begin x := 3; b := (x = 1) or (x = 3) end.";
        let p = compile_cc(
            src,
            &CcGenOptions {
                strategy: CcBoolStrategy::CondSet,
            },
        )
        .unwrap();
        let main = p.symbol("main").unwrap() as usize;
        let body = &p.instrs()[main..];
        let cond_branches = body
            .iter()
            .filter(|i| matches!(i, CcInstr::CondBranch { .. }))
            .count();
        assert_eq!(cond_branches, 0, "{}", p.listing());
        assert!(body.iter().any(|i| matches!(i, CcInstr::CondSet { .. })));
    }

    #[test]
    fn full_eval_executes_every_term() {
        // Count executed compares: full evaluation always runs both.
        let src = "program t; var b: boolean; x: integer;
             begin x := 1; b := (x = 1) or (x = 99) end.";
        let count = |strategy| {
            let p = compile_cc(src, &CcGenOptions { strategy }).unwrap();
            let mut m = CcMachine::new(p, CcPolicy::VAX);
            m.run().unwrap();
            m.stats().compares
        };
        assert_eq!(count(CcBoolStrategy::FullEval), 2);
        assert_eq!(
            count(CcBoolStrategy::EarlyOut),
            1,
            "first term true: early out"
        );
    }

    #[test]
    fn deep_index_expressions_fit_the_register_file() {
        // The puzzle definepiece shape that once exhausted the pool.
        let src = "program t;
             const d = 8;
             var pflat: array [0..100] of boolean;
                 pbase: array [0..3] of integer;
             procedure def(index, i, j, k: integer);
             begin
               pflat[pbase[index] + i + d * (j + d * k)] := true
             end;
             begin
               pbase[1] := 10;
               def(1, 1, 1, 1);
               if pflat[10 + 1 + 8 * 9] then writeln('ok')
             end.";
        assert_eq!(
            run_with(src, CcBoolStrategy::EarlyOut, CcPolicy::VAX),
            "ok\n"
        );
    }

    #[test]
    fn recursion_works_on_the_cc_machine() {
        let src = "program t;
             function fact(n: integer): integer;
             begin
               if n <= 1 then fact := 1 else fact := n * fact(n - 1)
             end;
             begin writeln(fact(6)) end.";
        assert_eq!(
            run_with(src, CcBoolStrategy::EarlyOut, CcPolicy::S360),
            "720\n"
        );
    }
}
