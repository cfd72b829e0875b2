//! Bit-identical equivalence of `Machine::run` (which skips all-stalled
//! windows in bulk) against a plain `Machine::step` loop, plus guest-memory
//! fault hardening.
//!
//! Stall skip may only change how fast the simulator runs, never what it
//! computes: for any program,
//! thread placement, and HPM sampling configuration, the final cycle count,
//! every per-CPU event counter, the exact stream of sampling overflow
//! captures (cycles, PCs, BTB/DEAR snapshots), data memory, and
//! architectural register state must match the per-cycle loop exactly.
//! The property test below drives both paths over random multithreaded
//! programs — including sampling on events that advance during stalls
//! (`CPU_CYCLES`, `BE_STALL_CYCLES`), which is the hard case: an overflow
//! can fire in the middle of an all-stalled window.

use cobra_isa::insn::{Insn, Op};
use cobra_isa::Assembler;
use cobra_machine::{
    CoreStatus, CpuStats, Event, Machine, MachineConfig, Mesi, OverflowCapture, RunResult,
    SamplingConfig,
};
use proptest::prelude::*;

/// One body instruction of a generated loop; selectors map onto the op mix
/// that exercises every stall source (load-use, FP long ops, atomics,
/// coherent stores, prefetches).
fn emit_body_op(a: &mut Assembler, sel: u8) {
    match sel % 8 {
        0 => {
            a.addi(6, 6, 1);
        }
        1 => {
            a.ldfd(0, 6, 4, 8);
        }
        2 => {
            a.stfd(0, 6, 4, 8);
        }
        3 => {
            a.ld8(0, 7, 4, 8);
        }
        4 => {
            a.st8(0, 7, 4, 8);
        }
        5 => {
            // Immediate use of the last FP load: the classic load-use stall.
            a.fma_d(0, 8, 6, 1, 6);
        }
        6 => {
            a.lfetch_nt1(0, 4, 64);
        }
        _ => {
            // Long-latency FP: stalls every consumer for fp_long_latency.
            a.emit(Insn::new(Op::FdivD {
                dest: 9,
                f1: 8,
                f2: 1,
            }));
        }
    }
}

/// The per-cycle reference: `Machine::step` until every bound thread
/// terminates or `budget` cycles elapse, reporting what `Machine::run`
/// would.
fn step_loop(m: &mut Machine, budget: u64) -> RunResult {
    let start = m.cycle();
    while !m.all_halted() && m.cycle() - start < budget {
        m.step();
    }
    RunResult {
        cycles: m.cycle() - start,
        halted: m.all_halted(),
        faulted: m.any_faulted(),
    }
}

/// Everything observable about a finished run. Two runs are "the same
/// simulation" iff these snapshots are equal.
#[derive(Debug, PartialEq)]
struct Snapshot {
    result: RunResult,
    final_cycle: u64,
    stats: Vec<CpuStats>,
    overflows: Vec<Vec<OverflowCapture>>,
    mem_words: Vec<u64>,
    regs: Vec<(u32, i64, i64, u64, u64)>, // (pc, r6, r7, f6 bits, f8 bits)
    mesi: Vec<Vec<Option<Mesi>>>,         // [cpu][line] over the touched range
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    use_run: bool,
    altix: bool,
    threads: usize,
    share_base: bool,
    event_sel: u8,
    period: u64,
    body: &[u8],
    iters: u64,
    budget: u64,
) -> Snapshot {
    let image = {
        let mut a = Assembler::new();
        // r8 = base address (thread argument), r4 = walking pointer.
        a.emit(Insn::new(Op::Add {
            dest: 4,
            r2: 8,
            r3: 0,
        }));
        a.movi(5, iters as i64);
        a.mov_to_lc(5);
        let top = a.new_label();
        a.bind(top);
        for &sel in body {
            emit_body_op(&mut a, sel);
        }
        a.br_cloop(top);
        a.hlt();
        a.finish()
    };
    let cfg = if altix {
        MachineConfig::altix8()
    } else {
        MachineConfig::smp4()
    };
    let threads = threads.min(cfg.num_cpus);
    let mut m = Machine::new(cfg, image);
    let event = match event_sel % 3 {
        0 => Event::CpuCycles,
        1 => Event::StallCycles,
        _ => Event::InstRetired,
    };
    for cpu in 0..threads {
        let baseline = m.stats()[cpu].get(event);
        m.shared.hpm[cpu].program_sampling(SamplingConfig { event, period }, baseline);
        let base = if share_base {
            0x1000u64
        } else {
            0x1000 + cpu as u64 * 0x4000
        };
        m.spawn_thread(cpu, 0, &[base as i64]);
    }
    let result = if use_run {
        m.run(budget)
    } else {
        step_loop(&mut m, budget)
    };
    Snapshot {
        result,
        final_cycle: m.cycle(),
        stats: m.stats().to_vec(),
        overflows: (0..m.num_cpus())
            .map(|cpu| m.shared.hpm[cpu].take_overflows())
            .collect(),
        mem_words: (0..0x12000u64)
            .step_by(8)
            .map(|a| m.shared.mem.read_u64(a))
            .collect(),
        regs: (0..threads)
            .map(|cpu| {
                let c = m.core(cpu);
                (c.pc, c.gr(6), c.gr(7), c.fr(6).to_bits(), c.fr(8).to_bits())
            })
            .collect(),
        mesi: (0..m.num_cpus())
            .map(|cpu| {
                (0..0x12000u64)
                    .step_by(128)
                    .map(|a| m.shared.memsys.peek_state(cpu, a))
                    .collect()
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Machine::run` and the per-cycle step loop produce bit-identical
    /// simulations on both evaluation machines: cycles, counters, overflow
    /// capture streams, memory, registers, and the MESI state of every
    /// touched line in every CPU's hierarchy.
    #[test]
    fn run_matches_step_loop(
        altix in any::<bool>(),
        threads in 1usize..=8,
        share_base in any::<bool>(),
        event_sel in 0u8..3,
        period in 50u64..1500,
        body in prop::collection::vec(0u8..8, 1..8),
        iters in 1u64..48,
    ) {
        let stepped =
            run_one(false, altix, threads, share_base, event_sel, period, &body, iters, 150_000);
        let run = run_one(true, altix, threads, share_base, event_sel, period, &body, iters, 150_000);
        prop_assert_eq!(stepped, run);
    }

    /// Same property when the budget cuts the run off mid-flight (possibly
    /// mid-stall): the cutoff cycle must also be identical.
    #[test]
    fn run_matches_step_loop_at_cutoff(
        body in prop::collection::vec(0u8..8, 1..6),
        budget in 100u64..3000,
    ) {
        let stepped = run_one(false, false, 2, true, 0, 100, &body, 400, budget);
        let run = run_one(true, false, 2, true, 0, 100, &body, 400, budget);
        prop_assert_eq!(stepped, run);
    }
}

/// An all-idle machine (no thread bound) must burn the whole budget on both
/// paths — and `run` must do it without spinning per cycle.
#[test]
fn idle_machine_burns_budget_identically() {
    let image = {
        let mut a = Assembler::new();
        a.hlt();
        a.finish()
    };
    let budget = 5_000_000u64;
    let mut slow = Machine::new(MachineConfig::smp4(), image.clone());
    let mut fast = Machine::new(MachineConfig::smp4(), image);
    let rs = step_loop(&mut slow, budget);
    let rf = fast.run(budget);
    assert_eq!(rs, rf);
    assert_eq!(slow.cycle(), fast.cycle());
    assert_eq!(rf.cycles, budget);
    assert!(!rf.halted);
}

// ---- guest-memory fault hardening ----

/// Build a machine whose thread executes `body` then (unreachably after a
/// fault) writes a sentinel and halts.
fn faulting_machine(body: impl FnOnce(&mut Assembler)) -> Machine {
    let mut a = Assembler::new();
    body(&mut a);
    a.movi(31, 1); // sentinel: only reached if no fault
    a.hlt();
    let mut m = Machine::new(MachineConfig::smp4(), a.finish());
    m.spawn_thread(0, 0, &[]);
    m
}

fn assert_faults_at(mut m: Machine, expected_addr: u64) {
    let r = m.run(100_000);
    assert!(r.halted, "a faulted thread terminates the run");
    assert!(r.faulted);
    assert_eq!(m.core(0).status, CoreStatus::Faulted);
    let f = m.core(0).fault.expect("fault info recorded");
    assert_eq!(f.addr, expected_addr);
    assert_eq!(m.core(0).gr(31), 0, "nothing executes past the fault");
    assert_eq!(m.stats()[0].get(Event::GuestFaults), 1);
}

#[test]
fn ld8_at_u64_max_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, -1); // u64::MAX: `addr + 8` wraps in a naive bounds check
        a.ld8(0, 7, 4, 0);
    });
    assert_faults_at(m, u64::MAX);
}

#[test]
fn st8_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, 1 << 40);
        a.st8(0, 5, 4, 0);
    });
    assert_faults_at(m, 1 << 40);
}

#[test]
fn ldfd_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, -8);
        a.ldfd(0, 6, 4, 0);
    });
    assert_faults_at(m, (-8i64) as u64);
}

#[test]
fn stfd_out_of_bounds_faults_not_panics() {
    // Near-i64::MAX address, built by shifting (movl immediates are 43-bit).
    let m = faulting_machine(|a| {
        a.movi(4, (1 << 42) - 1);
        a.emit(Insn::new(Op::ShlI {
            dest: 4,
            src: 4,
            count: 21,
        }));
        a.stfd(0, 6, 4, 0);
    });
    assert_faults_at(m, ((1u64 << 42) - 1) << 21);
}

#[test]
fn fetchadd_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, -16);
        a.emit(Insn::new(Op::FetchAdd8 {
            dest: 7,
            base: 4,
            inc: 1,
        }));
    });
    assert_faults_at(m, (-16i64) as u64);
}

#[test]
fn cmpxchg_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, u32::MAX as i64 * 1024);
        a.emit(Insn::new(Op::Cmpxchg8 {
            dest: 7,
            base: 4,
            new: 5,
            cmp: 6,
        }));
    });
    assert_faults_at(m, u32::MAX as u64 * 1024);
}

/// `lfetch` is a non-binding prefetch: an out-of-bounds address is silently
/// dropped (speculative prefetches never fault), and execution continues.
#[test]
fn lfetch_out_of_bounds_is_dropped_not_faulted() {
    let mut m = faulting_machine(|a| {
        a.movi(4, -1);
        a.lfetch_nt1(0, 4, 0);
    });
    let r = m.run(100_000);
    assert!(r.halted);
    assert!(!r.faulted);
    assert_eq!(m.core(0).status, CoreStatus::Halted);
    assert_eq!(m.core(0).gr(31), 1, "execution continued past the lfetch");
    assert_eq!(m.stats()[0].get(Event::GuestFaults), 0);
}

/// A fault on one CPU must not disturb the others: the healthy threads
/// finish their work and the run reports both termination kinds.
#[test]
fn fault_is_isolated_to_the_offending_thread() {
    let image = {
        let mut a = Assembler::new();
        // entry 0: healthy worker — sum 1..=10.
        a.movi(4, 9);
        a.mov_to_lc(4);
        a.movi(5, 0);
        a.movi(6, 0);
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
        // entry `bad`: immediate wild store.
        a.symbol("bad");
        let bad = a.movi(4, -64);
        a.st8(0, 5, 4, 0);
        a.hlt();
        let img = a.finish();
        assert_eq!(img.symbol("bad"), Some(bad));
        img
    };
    let bad_entry = image.symbol("bad").unwrap();
    let mut m = Machine::new(MachineConfig::smp4(), image);
    m.spawn_thread(0, 0, &[]);
    m.spawn_thread(1, bad_entry, &[]);
    let r = m.run(100_000);
    assert!(r.halted);
    assert!(r.faulted);
    assert_eq!(m.core(0).status, CoreStatus::Halted);
    assert_eq!(m.core(0).gr(5), 55, "healthy thread's result is intact");
    assert_eq!(m.core(1).status, CoreStatus::Faulted);
    assert_eq!(m.total_stats().get(Event::GuestFaults), 1);
}
