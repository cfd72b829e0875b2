//! In-order Itanium-2-like core: bundle issue, predication, a register
//! scoreboard (stall-on-use), rotating registers, and the modulo-scheduled
//! loop branches.
//!
//! The model executes up to one three-slot bundle per cycle. Functional
//! effects (register and memory values) are applied at issue, in program
//! order, so results are always architecturally correct; *timing* is modelled
//! by per-register ready cycles: an instruction whose source register is not
//! ready stalls the core until it is. Loads therefore stall at first *use*,
//! not at issue — precisely the property software pipelining and prefetching
//! exploit, and the reason removing useful prefetches hurts (Fig. 3a, 2 MB).

use cobra_isa::insn::{Insn, Op};
use cobra_isa::regs::Rrb;
use cobra_isa::CodeAddr;

use crate::events::Event;
use crate::machine::Shared;
use crate::memsys::AccessKind;

/// Scheduling state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// No software thread bound.
    Idle,
    /// Executing a thread.
    Running,
    /// The bound thread executed `hlt`.
    Halted,
    /// The bound thread performed an out-of-bounds data access and was
    /// terminated. The simulator host never panics on guest faults; the
    /// faulting PC/address are kept in [`Core::fault`].
    Faulted,
}

/// Details of a guest memory fault (the simulated SIGSEGV/SIGBUS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInfo {
    /// Slot address of the faulting instruction (PC is left pointing here).
    pub pc: CodeAddr,
    /// The offending data address.
    pub addr: u64,
    /// Cycle at which the fault was taken.
    pub cycle: u64,
}

/// Architectural + microarchitectural state of one CPU.
#[derive(Debug, Clone)]
pub struct Core {
    pub cpu: usize,
    pub status: CoreStatus,
    /// Thread id of the bound software thread, if any.
    pub tid: Option<u32>,
    pub pc: CodeAddr,
    // Architectural registers (physical; virtual numbers map through `rrb`).
    gr: [i64; 128],
    fr: [f64; 128],
    pr: [bool; 64],
    rrb: Rrb,
    lc: u64,
    ec: u64,
    b0: CodeAddr,
    // Scoreboard: cycle at which each physical register's value is usable.
    gr_ready: [u64; 128],
    fr_ready: [u64; 128],
    pr_ready: [u64; 64],
    /// Cycle until which the core is stalled.
    resume_at: u64,
    /// Details of the fault that terminated the bound thread, if any.
    pub fault: Option<FaultInfo>,
}

impl Core {
    pub fn new(cpu: usize) -> Self {
        Core {
            cpu,
            status: CoreStatus::Idle,
            tid: None,
            pc: 0,
            gr: [0; 128],
            fr: [0.0; 128],
            pr: [false; 64],
            rrb: Rrb::default(),
            lc: 0,
            ec: 0,
            b0: 0,
            gr_ready: [0; 128],
            fr_ready: [0; 128],
            pr_ready: [0; 64],
            resume_at: 0,
            fault: None,
        }
    }

    /// Bind a software thread: reset register state, set the entry PC and
    /// pass `args` in `r8..`, per the workspace calling convention.
    pub fn bind_thread(&mut self, tid: u32, entry: CodeAddr, args: &[i64]) {
        assert_eq!(
            self.status,
            CoreStatus::Idle,
            "cpu {} already busy",
            self.cpu
        );
        assert!(args.len() <= 16, "at most 16 register arguments");
        *self = Core::new(self.cpu);
        self.status = CoreStatus::Running;
        self.tid = Some(tid);
        self.pc = entry;
        for (k, &v) in args.iter().enumerate() {
            self.gr[8 + k] = v;
        }
        // Architectural constants.
        self.fr[1] = 1.0;
        self.pr[0] = true;
    }

    /// Release a halted (or faulted) thread, returning the core to the idle
    /// pool. Fault details stay readable until the next `bind_thread`.
    pub fn release(&mut self) {
        assert!(
            matches!(self.status, CoreStatus::Halted | CoreStatus::Faulted),
            "release requires a halted or faulted core"
        );
        self.status = CoreStatus::Idle;
        self.tid = None;
    }

    // ---- register access through rotation ----

    #[inline]
    fn read_gr(&self, vreg: u8) -> i64 {
        let p = self.rrb.map_gr(vreg) as usize;
        if p == 0 {
            0
        } else {
            self.gr[p]
        }
    }

    #[inline]
    fn write_gr(&mut self, vreg: u8, value: i64, ready: u64) {
        let p = self.rrb.map_gr(vreg) as usize;
        if p != 0 {
            self.gr[p] = value;
            self.gr_ready[p] = ready;
        }
    }

    #[inline]
    fn read_fr(&self, vreg: u8) -> f64 {
        let p = self.rrb.map_fr(vreg) as usize;
        match p {
            0 => 0.0,
            1 => 1.0,
            _ => self.fr[p],
        }
    }

    #[inline]
    fn write_fr(&mut self, vreg: u8, value: f64, ready: u64) {
        let p = self.rrb.map_fr(vreg) as usize;
        if p > 1 {
            self.fr[p] = value;
            self.fr_ready[p] = ready;
        }
    }

    #[inline]
    fn read_pr(&self, vreg: u8) -> bool {
        let p = self.rrb.map_pr(vreg) as usize;
        if p == 0 {
            true
        } else {
            self.pr[p]
        }
    }

    #[inline]
    fn write_pr(&mut self, vreg: u8, value: bool, ready: u64) {
        let p = self.rrb.map_pr(vreg) as usize;
        if p != 0 {
            self.pr[p] = value;
            self.pr_ready[p] = ready;
        }
    }

    #[inline]
    fn gr_ready_at(&self, vreg: u8) -> u64 {
        self.gr_ready[self.rrb.map_gr(vreg) as usize]
    }

    #[inline]
    fn fr_ready_at(&self, vreg: u8) -> u64 {
        self.fr_ready[self.rrb.map_fr(vreg) as usize]
    }

    #[inline]
    fn pr_ready_at(&self, vreg: u8) -> u64 {
        self.pr_ready[self.rrb.map_pr(vreg) as usize]
    }

    /// Cycle at which every source operand of `insn` is ready.
    fn sources_ready(&self, insn: &Insn) -> u64 {
        let mut t = self.pr_ready_at(insn.qp);
        let gr = |r: u8, t: &mut u64| *t = (*t).max(self.gr_ready_at(r));
        let mut fr_t = t;
        {
            use Op::*;
            match insn.op {
                Ld8 { base, .. } | Ldfd { base, .. } | Lfetch { base, .. } => gr(base, &mut t),
                St8 { src, base, .. } => {
                    gr(src, &mut t);
                    gr(base, &mut t);
                }
                Stfd { src, base, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(src));
                    gr(base, &mut t);
                }
                FetchAdd8 { base, .. } => gr(base, &mut t),
                Cmpxchg8 { base, new, cmp, .. } => {
                    gr(base, &mut t);
                    gr(new, &mut t);
                    gr(cmp, &mut t);
                }
                FmaD { f1, f2, f3, .. } | FmsD { f1, f2, f3, .. } => {
                    fr_t = fr_t
                        .max(self.fr_ready_at(f1))
                        .max(self.fr_ready_at(f2))
                        .max(self.fr_ready_at(f3));
                }
                FaddD { f1, f2, .. }
                | FsubD { f1, f2, .. }
                | FmulD { f1, f2, .. }
                | FdivD { f1, f2, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(f1)).max(self.fr_ready_at(f2));
                }
                FsqrtD { f1, .. } | FabsD { f1, .. } | FnegD { f1, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(f1));
                }
                FcmpD { f1, f2, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(f1)).max(self.fr_ready_at(f2));
                }
                SetfD { src, .. } | SetfSig { src, .. } => gr(src, &mut t),
                GetfD { src, .. } | GetfSig { src, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(src));
                }
                FcvtXf { src, .. } | FcvtFxTrunc { src, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(src));
                }
                Add { r2, r3, .. }
                | Sub { r2, r3, .. }
                | Mul { r2, r3, .. }
                | And { r2, r3, .. }
                | Or { r2, r3, .. }
                | Xor { r2, r3, .. } => {
                    gr(r2, &mut t);
                    gr(r3, &mut t);
                }
                AddI { src, .. }
                | AndI { src, .. }
                | ShlI { src, .. }
                | ShrI { src, .. }
                | SarI { src, .. } => gr(src, &mut t),
                MovI { .. } => {}
                Cmp { r2, r3, .. } => {
                    gr(r2, &mut t);
                    gr(r3, &mut t);
                }
                CmpI { r3, .. } => gr(r3, &mut t),
                BrCond { .. } | BrWtop { .. } => {} // qp handled above
                BrCtop { .. } | BrCloop { .. } | BrCall { .. } | BrRet => {}
                MovToLc { src } | MovToEc { src } | MovToB0 { src } => gr(src, &mut t),
                MovFromLc { .. } | MovFromEc { .. } | MovFromB0 { .. } => {}
                Clrrrb | Nop { .. } | Hlt => {}
            }
        }
        t.max(fr_t)
    }

    /// Execute up to one bundle (three slots). Called once per machine cycle.
    pub fn step(&mut self, shared: &mut Shared) {
        if self.status != CoreStatus::Running {
            return;
        }
        let now = shared.cycle;
        shared.stats[self.cpu].add(Event::CpuCycles, 1);
        if now < self.resume_at {
            shared.stats[self.cpu].add(Event::StallCycles, 1);
            return;
        }
        self.issue_bundle(shared, now);
    }

    /// Issue up to three slots: fetch each decoded instruction, stall on use
    /// when a source is not ready, otherwise execute it.
    fn issue_bundle(&mut self, shared: &mut Shared, now: u64) {
        for _slot in 0..3 {
            let insn = shared.code.insn(self.pc);
            let ready = self.sources_ready(&insn);
            if ready > now {
                // Stall-on-use: resume when the operand arrives.
                self.resume_at = ready;
                break;
            }
            let taken = self.execute(shared, now, insn);
            shared.stats[self.cpu].add(Event::InstRetired, 1);
            if taken || self.status != CoreStatus::Running || now < self.resume_at {
                break;
            }
        }
    }

    /// Terminate the bound thread on an out-of-bounds data access. The PC is
    /// left at the faulting instruction, no architectural or memory-system
    /// state is touched, and execution of this core stops for good.
    fn raise_fault(&mut self, shared: &mut Shared, now: u64, pc: CodeAddr, addr: u64) -> bool {
        self.status = CoreStatus::Faulted;
        self.fault = Some(FaultInfo {
            pc,
            addr,
            cycle: now,
        });
        shared.stats[self.cpu].add(Event::GuestFaults, 1);
        true
    }

    /// Execute one instruction at `self.pc`; advances the PC. Returns true
    /// when a taken branch ended the issue group.
    #[inline]
    fn execute(&mut self, shared: &mut Shared, now: u64, insn: Insn) -> bool {
        use Op::*;
        let pc = self.pc;
        let qp_true = self.read_pr(insn.qp);
        let int_ready = now + 1;
        let fp_ready = now + shared.cfg.fp_latency;

        if !qp_true {
            // Predicated off: consumes the slot, no effects (branches fall
            // through; `br.ctop`/`br.cloop` ignore qp by architecture, so
            // they are handled below regardless).
            match insn.op {
                BrCtop { .. } | BrCloop { .. } => {}
                _ => {
                    self.pc = pc + 1;
                    return false;
                }
            }
        }

        match insn.op {
            Ld8 {
                dest,
                base,
                post_inc,
                bias,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                let value = shared.mem.read_u64(addr) as i64;
                let out = shared.memsys.access(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    AccessKind::Load { fp: false, bias },
                    addr,
                );
                self.write_gr(dest, value, out.complete_at);
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            St8 {
                src,
                base,
                post_inc,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                shared.mem.write_u64(addr, self.read_gr(src) as u64);
                let out = shared.memsys.access(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    AccessKind::Store,
                    addr,
                );
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            Ldfd {
                dest,
                base,
                post_inc,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                let value = shared.mem.read_f64(addr);
                let out = shared.memsys.access(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    AccessKind::Load {
                        fp: true,
                        bias: false,
                    },
                    addr,
                );
                self.write_fr(dest, value, out.complete_at);
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            Stfd {
                src,
                base,
                post_inc,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                shared.mem.write_f64(addr, self.read_fr(src));
                let out = shared.memsys.access(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    AccessKind::Store,
                    addr,
                );
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            Lfetch {
                base,
                post_inc,
                excl,
                ..
            } => {
                let addr = self.read_gr(base) as u64;
                if shared.mem.in_bounds(addr) {
                    let _ = shared.memsys.access(
                        &mut shared.stats,
                        &mut shared.hpm,
                        self.cpu,
                        now,
                        pc,
                        AccessKind::Prefetch { excl },
                        addr,
                    );
                }
                self.post_inc(base, post_inc, int_ready);
            }
            FetchAdd8 { dest, base, inc } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                let old = shared.mem.read_u64(addr) as i64;
                shared.mem.write_u64(addr, (old + inc as i64) as u64);
                let out = shared.memsys.access(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    AccessKind::Atomic,
                    addr,
                );
                self.write_gr(dest, old, out.complete_at);
                // Acquire semantics: later operations wait for the RMW.
                self.resume_at = self.resume_at.max(out.complete_at);
            }
            Cmpxchg8 {
                dest,
                base,
                new,
                cmp,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                let old = shared.mem.read_u64(addr) as i64;
                if old == self.read_gr(cmp) {
                    shared.mem.write_u64(addr, self.read_gr(new) as u64);
                }
                let out = shared.memsys.access(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    AccessKind::Atomic,
                    addr,
                );
                self.write_gr(dest, old, out.complete_at);
                self.resume_at = self.resume_at.max(out.complete_at);
            }
            FmaD { dest, f1, f2, f3 } => {
                let v = self.read_fr(f1).mul_add(self.read_fr(f2), self.read_fr(f3));
                self.write_fr(dest, v, fp_ready);
            }
            FmsD { dest, f1, f2, f3 } => {
                let v = self
                    .read_fr(f1)
                    .mul_add(self.read_fr(f2), -self.read_fr(f3));
                self.write_fr(dest, v, fp_ready);
            }
            FaddD { dest, f1, f2 } => {
                let v = self.read_fr(f1) + self.read_fr(f2);
                self.write_fr(dest, v, fp_ready);
            }
            FsubD { dest, f1, f2 } => {
                let v = self.read_fr(f1) - self.read_fr(f2);
                self.write_fr(dest, v, fp_ready);
            }
            FmulD { dest, f1, f2 } => {
                let v = self.read_fr(f1) * self.read_fr(f2);
                self.write_fr(dest, v, fp_ready);
            }
            FdivD { dest, f1, f2 } => {
                let v = self.read_fr(f1) / self.read_fr(f2);
                self.write_fr(dest, v, now + shared.cfg.fp_long_latency);
            }
            FsqrtD { dest, f1 } => {
                let v = self.read_fr(f1).sqrt();
                self.write_fr(dest, v, now + shared.cfg.fp_long_latency);
            }
            FabsD { dest, f1 } => {
                let v = self.read_fr(f1).abs();
                self.write_fr(dest, v, fp_ready);
            }
            FnegD { dest, f1 } => {
                let v = -self.read_fr(f1);
                self.write_fr(dest, v, fp_ready);
            }
            FcmpD {
                p1,
                p2,
                rel,
                f1,
                f2,
            } => {
                let r = rel.eval_f64(self.read_fr(f1), self.read_fr(f2));
                self.write_pr(p1, r, int_ready);
                self.write_pr(p2, !r, int_ready);
            }
            SetfD { dest, src } => {
                let v = f64::from_bits(self.read_gr(src) as u64);
                self.write_fr(dest, v, fp_ready);
            }
            GetfD { dest, src } => {
                let v = self.read_fr(src).to_bits() as i64;
                self.write_gr(dest, v, int_ready);
            }
            SetfSig { dest, src } => {
                // Integer-in-FR: keep the integer value in the significand.
                let v = self.read_gr(src);
                self.write_fr(dest, f64::from_bits(v as u64), fp_ready);
            }
            GetfSig { dest, src } => {
                let v = self.read_fr(src).to_bits() as i64;
                self.write_gr(dest, v, int_ready);
            }
            FcvtXf { dest, src } => {
                let bits = self.read_fr(src).to_bits() as i64;
                self.write_fr(dest, bits as f64, fp_ready);
            }
            FcvtFxTrunc { dest, src } => {
                let v = self.read_fr(src).trunc() as i64;
                self.write_fr(dest, f64::from_bits(v as u64), fp_ready);
            }
            Add { dest, r2, r3 } => {
                let v = self.read_gr(r2).wrapping_add(self.read_gr(r3));
                self.write_gr(dest, v, int_ready);
            }
            Sub { dest, r2, r3 } => {
                let v = self.read_gr(r2).wrapping_sub(self.read_gr(r3));
                self.write_gr(dest, v, int_ready);
            }
            AddI { dest, src, imm } => {
                let v = self.read_gr(src).wrapping_add(imm as i64);
                self.write_gr(dest, v, int_ready);
            }
            Mul { dest, r2, r3 } => {
                let v = self.read_gr(r2).wrapping_mul(self.read_gr(r3));
                // Integer multiply runs on the FP unit on Itanium.
                self.write_gr(dest, v, now + shared.cfg.fp_latency);
            }
            ShlI { dest, src, count } => {
                let v = ((self.read_gr(src) as u64) << count) as i64;
                self.write_gr(dest, v, int_ready);
            }
            ShrI { dest, src, count } => {
                let v = ((self.read_gr(src) as u64) >> count) as i64;
                self.write_gr(dest, v, int_ready);
            }
            SarI { dest, src, count } => {
                let v = self.read_gr(src) >> count;
                self.write_gr(dest, v, int_ready);
            }
            And { dest, r2, r3 } => {
                let v = self.read_gr(r2) & self.read_gr(r3);
                self.write_gr(dest, v, int_ready);
            }
            Or { dest, r2, r3 } => {
                let v = self.read_gr(r2) | self.read_gr(r3);
                self.write_gr(dest, v, int_ready);
            }
            Xor { dest, r2, r3 } => {
                let v = self.read_gr(r2) ^ self.read_gr(r3);
                self.write_gr(dest, v, int_ready);
            }
            AndI { dest, src, imm } => {
                let v = self.read_gr(src) & imm as i64;
                self.write_gr(dest, v, int_ready);
            }
            MovI { dest, imm } => {
                self.write_gr(dest, imm, int_ready);
            }
            Cmp {
                p1,
                p2,
                rel,
                r2,
                r3,
            } => {
                let r = rel.eval_i64(self.read_gr(r2), self.read_gr(r3));
                self.write_pr(p1, r, int_ready);
                self.write_pr(p2, !r, int_ready);
            }
            CmpI {
                p1,
                p2,
                rel,
                imm,
                r3,
            } => {
                let r = rel.eval_i64(imm as i64, self.read_gr(r3));
                self.write_pr(p1, r, int_ready);
                self.write_pr(p2, !r, int_ready);
            }
            BrCond { target } => {
                if qp_true {
                    return self.take_branch(shared, pc, target);
                }
            }
            BrCtop { target } => {
                // Modulo-scheduled counted loop (ignores qp architecturally).
                let (taken, p16) = if self.lc > 0 {
                    self.lc -= 1;
                    (true, true)
                } else if self.ec > 1 {
                    self.ec -= 1;
                    (true, false)
                } else {
                    self.ec = self.ec.saturating_sub(1);
                    (false, false)
                };
                if taken {
                    self.rrb.rotate();
                    self.write_pr(16, p16, now + 1);
                    return self.take_branch(shared, pc, target);
                }
            }
            BrCloop { target } => {
                if self.lc > 0 {
                    self.lc -= 1;
                    return self.take_branch(shared, pc, target);
                }
            }
            BrWtop { target } => {
                // Simplified while-loop pipelined branch: continue while the
                // qualifying predicate holds, rotating on the taken path and
                // clearing the incoming stage predicate (see DESIGN.md §6).
                if qp_true {
                    self.rrb.rotate();
                    self.write_pr(16, false, now + 1);
                    return self.take_branch(shared, pc, target);
                }
            }
            BrCall { target } => {
                if qp_true {
                    self.b0 = pc + 1;
                    return self.take_branch(shared, pc, target);
                }
            }
            BrRet => {
                if qp_true {
                    let target = self.b0;
                    return self.take_branch(shared, pc, target);
                }
            }
            MovToLc { src } => self.lc = self.read_gr(src) as u64,
            MovToEc { src } => self.ec = self.read_gr(src) as u64,
            MovFromLc { dest } => self.write_gr(dest, self.lc as i64, int_ready),
            MovFromEc { dest } => self.write_gr(dest, self.ec as i64, int_ready),
            MovToB0 { src } => self.b0 = self.read_gr(src) as CodeAddr,
            MovFromB0 { dest } => self.write_gr(dest, self.b0 as i64, int_ready),
            Clrrrb => self.rrb.clear(),
            Nop { .. } => {}
            Hlt => {
                // Thread completion has release semantics: wait for the
                // store buffer to drain before signalling the join.
                let drain = shared.memsys.store_drain_time(self.cpu);
                if drain > now {
                    self.resume_at = drain;
                    return true; // retry hlt once drained (pc not advanced)
                }
                self.status = CoreStatus::Halted;
                return true;
            }
        }
        self.pc = pc + 1;
        false
    }

    #[inline]
    fn post_inc(&mut self, base: u8, post_inc: i32, ready: u64) {
        if post_inc != 0 {
            let v = self.read_gr(base).wrapping_add(post_inc as i64);
            self.write_gr(base, v, ready);
        }
    }

    #[inline]
    fn take_branch(&mut self, shared: &mut Shared, src: CodeAddr, target: CodeAddr) -> bool {
        shared.stats[self.cpu].add(Event::BrTaken, 1);
        // On-stack replacement: while a verified map is armed, a taken
        // branch into the old loop version commits to the corresponding
        // instruction of the deployed version instead. The empty-table
        // check is the entire cost when no migration is in flight. The BTB
        // records the redirected target — the profile sees the control
        // transfer that actually happened.
        let target = if shared.redirects.is_empty() {
            target
        } else {
            shared.redirects.redirect(target).unwrap_or(target)
        };
        shared.hpm[self.cpu].btb_push(src, target);
        self.pc = target;
        true
    }

    /// Add externally-imposed stall cycles (snoop-response penalties).
    pub fn add_stall(&mut self, now: u64, cycles: u64) {
        if cycles > 0 && self.status == CoreStatus::Running {
            self.resume_at = self.resume_at.max(now + cycles);
        }
    }

    // ---- debug/test accessors ----

    /// Read a virtual GR (tests and thread-exit value inspection).
    pub fn gr(&self, vreg: u8) -> i64 {
        self.read_gr(vreg)
    }

    /// Read a virtual FR.
    pub fn fr(&self, vreg: u8) -> f64 {
        self.read_fr(vreg)
    }

    /// Read a virtual predicate register.
    pub fn pr(&self, vreg: u8) -> bool {
        self.read_pr(vreg)
    }

    /// Loop-count application register.
    pub fn lc(&self) -> u64 {
        self.lc
    }

    /// Cycle until which the core is stalled. Stall skip reads this to find
    /// the earliest wake-up point across all Running cores.
    pub fn resume_at(&self) -> u64 {
        self.resume_at
    }
}
