//! The timing `QuantumHook` decorator: forwards every callback to the
//! wrapped hook (`Cobra` or `NullHook`) and adds up the host time spent
//! inside it, so a traced run can split `Workload::run` into simulator
//! time and COBRA-runtime time without touching the program.

use std::time::{Duration, Instant};

use cobra_machine::Machine;
use cobra_omp::{QuantumHook, Team};

/// Wraps a hook and accumulates the host time its callbacks take.
pub struct TimedHook<'a> {
    inner: &'a mut dyn QuantumHook,
    /// Host time spent inside the wrapped hook's callbacks.
    pub spent: Duration,
    /// `on_quantum` calls forwarded.
    pub quanta: u64,
}

impl<'a> TimedHook<'a> {
    pub fn new(inner: &'a mut dyn QuantumHook) -> Self {
        TimedHook {
            inner,
            spent: Duration::ZERO,
            quanta: 0,
        }
    }
}

impl QuantumHook for TimedHook<'_> {
    fn on_quantum(&mut self, machine: &mut Machine) {
        let t = Instant::now();
        self.inner.on_quantum(machine);
        self.spent += t.elapsed();
        self.quanta += 1;
    }

    fn on_fork(&mut self, machine: &mut Machine, team: Team) {
        let t = Instant::now();
        self.inner.on_fork(machine, team);
        self.spent += t.elapsed();
    }

    fn on_join(&mut self, machine: &mut Machine) {
        let t = Instant::now();
        self.inner.on_join(machine);
        self.spent += t.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_kernels::npb::{self, Benchmark};
    use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy, Workload};
    use cobra_machine::{MachineConfig, ALL_EVENTS};
    use cobra_omp::{NullHook, OmpRuntime};
    use cobra_rt::{Cobra, Strategy};

    /// Cycles, every machine-wide counter and the serialized `CobraReport`
    /// of one adaptive mg tournament run with OSR (the `osr-tournament`
    /// configuration), with or without the decorator.
    fn tournament_mg(wrapped: bool) -> (u64, Vec<u64>, String) {
        let cfg = MachineConfig::smp4();
        let wl = npb::build(Benchmark::Mg, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let mut m = Machine::new(cfg, wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut cobra = Cobra::builder()
            .strategy(Strategy::Adaptive)
            .candidates(true)
            .osr(true)
            .attach(&mut m);
        let rt = OmpRuntime {
            quantum: crate::sim::TOURNAMENT_QUANTUM,
            ..OmpRuntime::default()
        };
        let run = if wrapped {
            let mut timed = TimedHook::new(&mut cobra);
            let run = wl.run(&mut m, Team::new(4), &rt, &mut timed);
            assert!(timed.quanta > 0 && timed.spent > Duration::ZERO);
            run
        } else {
            wl.run(&mut m, Team::new(4), &rt, &mut cobra)
        };
        let report = cobra.detach(&mut m);
        assert!(
            report.candidates_trialed > 0 && report.osr_migrations > 0,
            "the run must exercise tournaments and OSR"
        );
        wl.verify(&m.shared.mem).expect("mg verifies");
        let total = m.total_stats();
        let counters = ALL_EVENTS.iter().map(|&e| total.get(e)).collect();
        let report = serde_json::to_string(&report).expect("report serializes");
        (run.cycles, counters, report)
    }

    #[test]
    fn wrapping_cobra_does_not_perturb_the_simulation() {
        let plain = tournament_mg(false);
        let timed = tournament_mg(true);
        assert_eq!(plain.0, timed.0, "cycles");
        assert_eq!(plain.1, timed.1, "machine counters");
        assert_eq!(plain.2, timed.2, "CobraReport");
    }

    #[test]
    fn wrapping_null_hook_does_not_perturb_the_simulation() {
        let cfg = MachineConfig::smp4();
        let wl = Daxpy::build(
            DaxpyParams::new(64 * 1024, 4),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let run = |wrapped: bool| {
            let mut m = Machine::new(cfg.clone(), wl.image().clone());
            wl.init(&mut m.shared.mem);
            let rt = OmpRuntime::default();
            let mut null = NullHook;
            let run = if wrapped {
                wl.run(&mut m, Team::new(2), &rt, &mut TimedHook::new(&mut null))
            } else {
                wl.run(&mut m, Team::new(2), &rt, &mut null)
            };
            let total = m.total_stats();
            (
                run.cycles,
                ALL_EVENTS.iter().map(|&e| total.get(e)).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
