//! The whole machine: cores in lockstep over a shared coherent memory system,
//! a flat functional data memory, the decoded program text, and per-CPU HPMs.
//!
//! The simulator is *functional-first*: data values live in [`DataMem`] and
//! are updated in program order at issue, so computations are always
//! numerically correct; the cache/bus model in [`crate::memsys`] provides
//! timing and event counts. Runtime patching happens through
//! [`Machine::patch`] / [`Machine::append_trace`], which keep the decoded
//! shadow copy (the "i-cache") in sync — the simulated analogue of COBRA
//! patching the text segment of a live process and flushing stale
//! instructions.

use cobra_isa::image::{CodeImage, PatchError};
use cobra_isa::insn::Insn;
use cobra_isa::CodeAddr;

use crate::config::MachineConfig;
use crate::core::{Core, CoreStatus};
use crate::events::{self, CpuStats, Event};
use crate::hpm::Hpm;
use crate::memsys::MemSystem;
use crate::redirect::RedirectTable;

/// Flat byte-addressed functional data memory.
#[derive(Debug, Clone)]
pub struct DataMem {
    bytes: Vec<u8>,
}

impl DataMem {
    pub fn new(size: usize) -> Self {
        DataMem {
            bytes: vec![0; size],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Can a full 8-byte access at `addr` be satisfied? Overflow-safe for
    /// any guest-computed address, including those near `u64::MAX` (where a
    /// naive `addr + 8` wraps around and would falsely pass).
    #[inline]
    pub fn in_bounds(&self, addr: u64) -> bool {
        usize::try_from(addr)
            .ok()
            .and_then(|a| a.checked_add(8))
            .is_some_and(|end| end <= self.bytes.len())
    }

    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(
            self.bytes[a..a + 8]
                .try_into()
                .expect("read_u64 out of bounds"),
        )
    }

    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    #[inline]
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Bulk-initialize a contiguous `f64` array (host-side workload setup).
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) {
        for (k, &v) in values.iter().enumerate() {
            self.write_f64(addr + 8 * k as u64, v);
        }
    }

    /// Bulk-read a contiguous `f64` array (host-side verification).
    pub fn read_f64_slice(&self, addr: u64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|k| self.read_f64(addr + 8 * k as u64))
            .collect()
    }

    /// Bulk-initialize a contiguous `i64` array.
    pub fn write_i64_slice(&mut self, addr: u64, values: &[i64]) {
        for (k, &v) in values.iter().enumerate() {
            self.write_u64(addr + 8 * k as u64, v as u64);
        }
    }
}

/// The program text plus its decoded shadow copy.
#[derive(Debug, Clone)]
pub struct ProgramCode {
    image: CodeImage,
    decoded: Vec<Insn>,
}

impl ProgramCode {
    pub fn new(image: CodeImage) -> Self {
        let decoded = image
            .decode_all()
            .expect("undecodable instruction in program image");
        ProgramCode { image, decoded }
    }

    /// Decoded instruction at `addr` (the core's fetch path).
    #[inline]
    pub fn insn(&self, addr: CodeAddr) -> Insn {
        self.decoded[addr as usize]
    }

    /// Total number of instruction slots (main image plus trace region).
    #[inline]
    pub fn len(&self) -> CodeAddr {
        self.decoded.len() as CodeAddr
    }

    pub fn is_empty(&self) -> bool {
        self.decoded.is_empty()
    }

    /// The underlying binary image (read-only view).
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// Patch one slot, keeping the decoded copy coherent.
    pub fn patch(&mut self, addr: CodeAddr, insn: &Insn) -> Result<u64, PatchError> {
        let old = self.image.patch(addr, insn)?;
        self.decoded[addr as usize] = *insn;
        Ok(old)
    }

    /// Patch one slot from a raw (validated) word.
    pub fn patch_word(&mut self, addr: CodeAddr, word: u64) -> Result<u64, PatchError> {
        let old = self.image.patch_word(addr, word)?;
        self.decoded[addr as usize] = self
            .image
            .insn(addr)
            .expect("patch_word validated the word");
        Ok(old)
    }

    /// Append an optimized trace; returns its entry address.
    pub fn append_trace(&mut self, insns: &[Insn]) -> CodeAddr {
        let start = self.image.append_trace(insns);
        // Re-decode the appended region (plus alignment padding).
        for addr in self.decoded.len()..self.image.len() as usize {
            self.decoded.push(
                self.image
                    .insn(addr as CodeAddr)
                    .expect("fresh trace decodes"),
            );
        }
        start
    }

    /// Current patch-log mark (for revert).
    pub fn patch_mark(&self) -> usize {
        self.image.patch_mark()
    }

    /// Revert patches past `mark`, refreshing the decoded copy. Only the
    /// slots named in the reverted patch records are re-decoded — reverting
    /// one deployment must not cost a full-image decode.
    pub fn revert_to_mark(&mut self, mark: usize) {
        for rec in self.image.revert_to_mark(mark) {
            self.decoded[rec.addr as usize] = self
                .image
                .insn(rec.addr)
                .expect("reverted word decoded when first patched");
        }
    }
}

/// State shared by all cores (everything except the cores themselves).
#[derive(Debug)]
pub struct Shared {
    pub cfg: MachineConfig,
    pub mem: DataMem,
    pub code: ProgramCode,
    pub memsys: MemSystem,
    pub stats: Vec<CpuStats>,
    pub hpm: Vec<Hpm>,
    /// Armed on-stack-replacement edges (see [`crate::redirect`]); consulted
    /// by `Core::take_branch` on every taken branch while non-empty.
    pub redirects: RedirectTable,
    pub cycle: u64,
}

/// Outcome of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles executed by this call.
    pub cycles: u64,
    /// True when no bound thread remains runnable: each one reached `hlt`
    /// or took a guest memory fault (see `faulted`).
    pub halted: bool,
    /// True when at least one bound thread terminated with a guest memory
    /// fault instead of a clean `hlt`.
    pub faulted: bool,
}

/// Block-engine counters, always zero: the simulator has one per-cycle
/// engine. Exists only for the benchmark's per-layer readout (`perfbench`
/// reports these four fields); see [`Machine::block_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    pub builds: u64,
    pub fallback_mem_boundary: u64,
    pub fallback_sampling: u64,
    pub horizon_cycles: u64,
}

/// A simulated multiprocessor executing one program image.
#[derive(Debug)]
pub struct Machine {
    cores: Vec<Core>,
    pub shared: Shared,
    next_tid: u32,
}

impl Machine {
    pub fn new(cfg: MachineConfig, image: CodeImage) -> Self {
        let n = cfg.num_cpus;
        let shared = Shared {
            mem: DataMem::new(cfg.mem_bytes),
            code: ProgramCode::new(image),
            memsys: MemSystem::new(&cfg),
            stats: (0..n).map(|_| CpuStats::new()).collect(),
            hpm: (0..n).map(|_| Hpm::new(cfg.dear_min_latency)).collect(),
            redirects: RedirectTable::default(),
            cycle: 0,
            cfg,
        };
        Machine {
            cores: (0..n).map(Core::new).collect(),
            shared,
            next_tid: 0,
        }
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> usize {
        self.shared.cfg.num_cpus
    }

    /// Bind a new software thread to `cpu` starting at `entry`, passing
    /// `args` in `r8..`. Returns the thread id.
    pub fn spawn_thread(&mut self, cpu: usize, entry: CodeAddr, args: &[i64]) -> u32 {
        let tid = self.next_tid;
        self.next_tid += 1;
        self.cores[cpu].bind_thread(tid, entry, args);
        tid
    }

    /// Advance the whole machine one cycle.
    pub fn step(&mut self) {
        for i in 0..self.cores.len() {
            self.cores[i].step(&mut self.shared);
        }
        // Deliver snoop-response penalties accrued this cycle to the
        // victims' pipelines.
        for i in 0..self.cores.len() {
            let stall = self.shared.memsys.take_snoop_stall(i);
            self.cores[i].add_stall(self.shared.cycle, stall);
        }
        self.shared.cycle += 1;
        for cpu in 0..self.cores.len() {
            let core = &self.cores[cpu];
            self.shared.hpm[cpu].poll_overflow(
                &self.shared.stats[cpu],
                core.pc,
                core.tid.unwrap_or(u32::MAX),
                self.shared.cycle,
            );
        }
    }

    /// Has every bound thread terminated — reached `hlt` or faulted?
    /// (False when no thread is bound.)
    pub fn all_halted(&self) -> bool {
        let mut any = false;
        for c in &self.cores {
            match c.status {
                CoreStatus::Running => return false,
                CoreStatus::Halted | CoreStatus::Faulted => any = true,
                CoreStatus::Idle => {}
            }
        }
        any
    }

    /// Did any bound thread terminate with a guest memory fault?
    pub fn any_faulted(&self) -> bool {
        self.cores.iter().any(|c| c.status == CoreStatus::Faulted)
    }

    /// When no Running core can execute at the current cycle, the number of
    /// cycles (≥ 1, ≤ `budget`) that can be skipped in bulk without changing
    /// any observable state relative to the per-cycle reference loop.
    /// `None` when some core executes this cycle or the budget is spent.
    ///
    /// The window is the distance to the earliest wake-up (`resume_at`)
    /// across Running cores — or the whole budget when no core is Running —
    /// additionally capped, per CPU whose HPM samples an event that advances
    /// once per stalled cycle (`CPU_CYCLES`, `BE_STALL_CYCLES`), at the
    /// sampling headroom: a longer jump would land an overflow capture past
    /// the cycle where the reference path takes it.
    fn stall_skip_window(&self, budget: u64) -> Option<u64> {
        if budget == 0 {
            return None;
        }
        let now = self.shared.cycle;
        let mut n = budget;
        let mut any_running = false;
        for c in &self.cores {
            if c.status != CoreStatus::Running {
                continue;
            }
            any_running = true;
            let resume = c.resume_at();
            if resume <= now {
                return None; // this core executes this cycle
            }
            n = n.min(resume - now);
        }
        if any_running {
            for c in &self.cores {
                if c.status != CoreStatus::Running {
                    continue;
                }
                if let Some(sc) = self.shared.hpm[c.cpu].sampling_config() {
                    if matches!(sc.event, Event::CpuCycles | Event::StallCycles) {
                        let current = self.shared.stats[c.cpu].get(sc.event);
                        if let Some(headroom) = self.shared.hpm[c.cpu].sampling_headroom(current) {
                            // After every poll the threshold moves past the
                            // counter, so headroom ≥ 1; the max(1) guards
                            // forward progress regardless.
                            n = n.min(headroom.max(1));
                        }
                    }
                }
            }
        }
        Some(n)
    }

    /// Advance the clock by `n` cycles across an all-stalled (or all-idle)
    /// window, reproducing exactly the per-cycle loop's observable effects:
    /// each Running core accrues `n` CPU and stall cycles (snoop stalls are
    /// provably zero — they only accrue while some core executes), and one
    /// end-of-window overflow poll per CPU lands any sampling crossing on
    /// the same cycle as the reference path (guaranteed by the headroom cap
    /// in [`Self::stall_skip_window`]).
    fn skip_stalled(&mut self, n: u64) {
        for c in &self.cores {
            if c.status == CoreStatus::Running {
                debug_assert_eq!(
                    self.shared.memsys.snoop_stall_pending(c.cpu),
                    0,
                    "snoop stalls cannot be pending while every core is stalled"
                );
                self.shared.stats[c.cpu].add(Event::CpuCycles, n);
                self.shared.stats[c.cpu].add(Event::StallCycles, n);
            }
        }
        self.shared.cycle += n;
        for cpu in 0..self.cores.len() {
            let core = &self.cores[cpu];
            self.shared.hpm[cpu].poll_overflow(
                &self.shared.stats[cpu],
                core.pc,
                core.tid.unwrap_or(u32::MAX),
                self.shared.cycle,
            );
        }
    }

    /// Run until every bound thread terminates or `max_cycles` elapse.
    ///
    /// Cycles where no core can execute are skipped in bulk to the earliest
    /// wake-up point ([`Self::stall_skip_window`]); every other cycle goes
    /// through [`Self::step`]. Results are bit-identical to a plain
    /// [`Self::step`] loop (enforced by the `stall_skip_equivalence` suite).
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let start = self.shared.cycle;
        while !self.all_halted() {
            let elapsed = self.shared.cycle - start;
            if elapsed >= max_cycles {
                return RunResult {
                    cycles: elapsed,
                    halted: false,
                    faulted: self.any_faulted(),
                };
            }
            match self.stall_skip_window(max_cycles - elapsed) {
                Some(n) => self.skip_stalled(n),
                None => self.step(),
            }
        }
        RunResult {
            cycles: self.shared.cycle - start,
            halted: true,
            faulted: self.any_faulted(),
        }
    }

    /// Release every halted or faulted core back to the idle pool (end of a
    /// parallel region).
    pub fn release_halted(&mut self) {
        for c in &mut self.cores {
            if matches!(c.status, CoreStatus::Halted | CoreStatus::Faulted) {
                c.release();
            }
        }
    }

    /// Immutable view of one core.
    pub fn core(&self, cpu: usize) -> &Core {
        &self.cores[cpu]
    }

    /// Per-CPU statistics.
    pub fn stats(&self) -> &[CpuStats] {
        &self.shared.stats
    }

    /// Machine-wide event totals.
    pub fn total_stats(&self) -> CpuStats {
        events::total(&self.shared.stats)
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.shared.cycle
    }

    /// Patch one instruction slot in the live image (COBRA deployment).
    pub fn patch(&mut self, addr: CodeAddr, insn: &Insn) -> Result<u64, PatchError> {
        self.shared.code.patch(addr, insn)
    }

    /// Patch one slot from a raw word (COBRA ships encoded words).
    pub fn patch_word(&mut self, addr: CodeAddr, word: u64) -> Result<u64, PatchError> {
        self.shared.code.patch_word(addr, word)
    }

    /// Append an optimized trace to the live image.
    pub fn append_trace(&mut self, insns: &[Insn]) -> CodeAddr {
        self.shared.code.append_trace(insns)
    }

    /// Always zero (see [`BlockStats`]). Exists only for the benchmark's
    /// per-layer readout.
    pub fn block_stats(&self) -> BlockStats {
        BlockStats::default()
    }

    /// Arm on-stack-replacement edges for `plan_id`: taken branches to each
    /// `from` commit to the paired `to` instead, migrating threads between
    /// loop versions at their next back edge. Callers must only arm
    /// mappings proven by `cobra-verify::check_osr_map`. Re-arming a plan
    /// replaces its edges (forward → reverse on revert) and keeps its hit
    /// count.
    pub fn arm_redirect(&mut self, plan_id: u64, pairs: &[(CodeAddr, CodeAddr)]) {
        self.shared.redirects.arm(plan_id, pairs);
    }

    /// Disarm `plan_id`'s redirect edges, returning the migrations served.
    pub fn disarm_redirect(&mut self, plan_id: u64) -> u64 {
        self.shared.redirects.disarm(plan_id)
    }

    /// Migrations served so far by `plan_id`'s armed edges.
    pub fn redirect_hits(&self, plan_id: u64) -> u64 {
        self.shared.redirects.hits(plan_id)
    }

    /// True when some core bound to a live thread has its PC inside
    /// `[lo, hi]` — the convergence probe for disarming an OSR map: once no
    /// running thread remains in the source version's range, every thread
    /// has migrated (or left the loop) and the map can stand down.
    pub fn any_pc_in(&self, lo: CodeAddr, hi: CodeAddr) -> bool {
        self.cores
            .iter()
            .any(|c| c.status == CoreStatus::Running && (lo..=hi).contains(&c.pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::{CmpRel, Op, Unit};
    use cobra_isa::Assembler;

    fn machine_with(asm: impl FnOnce(&mut Assembler)) -> Machine {
        let mut a = Assembler::new();
        asm(&mut a);
        Machine::new(MachineConfig::smp4(), a.finish())
    }

    #[test]
    fn datamem_roundtrip() {
        let mut m = DataMem::new(1 << 12);
        m.write_f64(16, 3.25);
        assert_eq!(m.read_f64(16), 3.25);
        m.write_u64(0, u64::MAX);
        assert_eq!(m.read_u64(0), u64::MAX);
        m.write_f64_slice(64, &[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f64_slice(64, 3), vec![1.0, 2.0, 3.0]);
        assert!(m.in_bounds(4088));
        assert!(!m.in_bounds(4089));
    }

    #[test]
    fn in_bounds_rejects_wrapping_addresses() {
        // `addr + 8` wraps near u64::MAX; a naive check would accept these.
        let m = DataMem::new(1 << 12);
        assert!(!m.in_bounds(u64::MAX));
        assert!(!m.in_bounds(u64::MAX - 7));
        assert!(!m.in_bounds(u64::MAX - 8));
        assert!(!m.in_bounds(1 << 40));
    }

    #[test]
    fn oob_store_faults_guest_thread_not_host() {
        let mut m = machine_with(|a| {
            a.movi(4, -8); // as u64: 0xffff...fff8 — wraps past the memory end
            a.movi(5, 7);
            a.st8(0, 5, 4, 0);
            a.movi(6, 1); // must never execute
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        let r = m.run(1000);
        assert!(r.halted, "faulted thread terminates the run");
        assert!(r.faulted);
        assert_eq!(m.core(0).status, CoreStatus::Faulted);
        let fault = m.core(0).fault.expect("fault details recorded");
        assert_eq!(fault.addr, (-8i64) as u64);
        assert_eq!(m.core(0).gr(6), 0, "execution stops at the fault");
        assert_eq!(
            m.stats()[0].get(crate::events::Event::GuestFaults),
            1,
            "fault is counted"
        );
        // The core can be released and reused like a halted one.
        m.release_halted();
        assert_eq!(m.core(0).status, CoreStatus::Idle);
    }

    #[test]
    fn straight_line_arithmetic_halts() {
        let mut m = machine_with(|a| {
            a.movi(4, 30);
            a.addi(4, 4, 12);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        let r = m.run(1000);
        assert!(r.halted);
        assert_eq!(m.core(0).gr(4), 42);
        assert!(m.stats()[0].get(crate::events::Event::InstRetired) >= 3);
    }

    #[test]
    fn thread_args_arrive_in_r8() {
        let mut m = machine_with(|a| {
            a.emit(Insn::new(Op::Add {
                dest: 4,
                r2: 8,
                r3: 9,
            }));
            a.hlt();
        });
        m.spawn_thread(2, 0, &[40, 2]);
        assert!(m.run(100).halted);
        assert_eq!(m.core(2).gr(4), 42);
    }

    #[test]
    fn counted_loop_with_cloop() {
        // Sum 1..=10 with br.cloop.
        let mut m = machine_with(|a| {
            a.movi(4, 9); // LC counts N-1 extra iterations
            a.mov_to_lc(4);
            a.movi(5, 0); // acc
            a.movi(6, 0); // i
            let top = a.new_label();
            a.bind(top);
            a.addi(6, 6, 1);
            a.emit(Insn::new(Op::Add {
                dest: 5,
                r2: 5,
                r3: 6,
            }));
            a.br_cloop(top);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10_000).halted);
        assert_eq!(m.core(0).gr(5), 55);
    }

    #[test]
    fn predication_skips_instructions() {
        let mut m = machine_with(|a| {
            a.movi(4, 1);
            a.movi(5, 2);
            a.cmp(6, 7, CmpRel::Lt, 4, 5); // p6 = 1<2 = true, p7 = false
            a.emit(Insn::pred(6, Op::MovI { dest: 9, imm: 111 }));
            a.emit(Insn::pred(7, Op::MovI { dest: 9, imm: 222 }));
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(1000).halted);
        assert_eq!(m.core(0).gr(9), 111);
    }

    #[test]
    fn conditional_branch_taken_updates_btb() {
        let mut m = machine_with(|a| {
            let skip = a.new_label();
            a.movi(4, 5);
            a.cmp(6, 7, CmpRel::Eq, 4, 4);
            a.br_cond(6, skip);
            a.movi(9, 666); // skipped
            a.bind(skip);
            a.movi(10, 7);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(1000).halted);
        assert_eq!(m.core(0).gr(9), 0, "branch must skip");
        assert_eq!(m.core(0).gr(10), 7);
        assert_eq!(m.shared.hpm[0].btb_snapshot().len(), 1);
    }

    #[test]
    fn load_store_roundtrip_through_simulated_memory() {
        let mut m = machine_with(|a| {
            a.movi(4, 0x1000);
            a.movi(5, 0x2000);
            a.ldfd(0, 6, 4, 0);
            a.stfd(0, 6, 5, 0);
            a.hlt();
        });
        m.shared.mem.write_f64(0x1000, 2.5);
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10_000).halted);
        assert_eq!(m.shared.mem.read_f64(0x2000), 2.5);
    }

    #[test]
    fn load_use_stall_costs_memory_latency() {
        // ldfd then immediate fma on the result: the consumer stalls for the
        // full memory latency.
        let mk = |with_use: bool| {
            let mut m = machine_with(|a| {
                a.movi(4, 0x1000);
                a.ldfd(0, 6, 4, 0);
                if with_use {
                    a.fma_d(0, 7, 6, 1, 0); // f7 = f6*1 + 0
                }
                a.hlt();
            });
            m.spawn_thread(0, 0, &[]);
            let r = m.run(100_000);
            assert!(r.halted);
            r.cycles
        };
        let without = mk(false);
        let with = mk(true);
        let cfg = MachineConfig::smp4();
        assert!(
            with >= without + cfg.mem_latency - 2,
            "use must stall on the load: {with} vs {without}"
        );
    }

    #[test]
    fn ctop_software_pipeline_rotates_and_counts() {
        // A minimal 2-stage pipeline: stage predicate p16 guards the "real"
        // work; after LC runs out, one epilogue iteration (EC=2) drains.
        let mut m = machine_with(|a| {
            a.emit(Insn::new(Op::Clrrrb));
            a.movi(4, 3); // LC = 3 -> 4 kernel iterations
            a.mov_to_lc(4);
            a.movi(5, 1); // EC = 2
            a.addi(5, 5, 1);
            a.mov_to_ec(5);
            a.movi(7, 0); // counter of p16-guarded executions
                          // prime p16 = true for the first iteration
            a.cmp(16, 17, CmpRel::Eq, 0, 0);
            let top = a.new_label();
            a.bind(top);
            a.emit(Insn::pred(
                16,
                Op::AddI {
                    dest: 7,
                    src: 7,
                    imm: 1,
                },
            ));
            a.br_ctop(top);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(100_000).halted);
        // p16 is true for LC+1 = 4 kernel iterations, false in the epilogue.
        assert_eq!(m.core(0).gr(7), 4);
    }

    #[test]
    fn patch_affects_subsequent_execution() {
        let mut m = machine_with(|a| {
            a.movi(4, 0x1000);
            let top = a.new_label();
            a.movi(5, 3);
            a.mov_to_lc(5);
            a.bind(top);
            a.lfetch_nt1(0, 4, 128);
            a.br_cloop(top);
            a.hlt();
        });
        // Find the lfetch slot and patch it to nop.m before running.
        let lf_addr = (0..m.shared.code.image().main_len())
            .find(|&a| m.shared.code.insn(a).is_lfetch())
            .unwrap();
        m.patch(lf_addr, &cobra_isa::NOP_SLOT_M).unwrap();
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10_000).halted);
        assert_eq!(m.stats()[0].get(crate::events::Event::LfetchIssued), 0);
    }

    #[test]
    fn append_trace_is_executable() {
        let mut m = machine_with(|a| {
            a.nop(Unit::I);
            a.hlt();
        });
        let entry = m.append_trace(&[Insn::new(Op::MovI { dest: 4, imm: 99 }), Insn::new(Op::Hlt)]);
        m.spawn_thread(0, entry, &[]);
        assert!(m.run(100).halted);
        assert_eq!(m.core(0).gr(4), 99);
    }

    #[test]
    fn release_and_respawn() {
        let mut m = machine_with(|a| {
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10).halted);
        m.release_halted();
        let tid2 = m.spawn_thread(0, 0, &[]);
        assert_eq!(tid2, 1);
        assert!(m.run(10).halted);
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_bind_same_cpu_panics() {
        let mut m = machine_with(|a| {
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        m.spawn_thread(0, 0, &[]);
    }
}
