//! Simulation trials: one `Machine` built, initialised, run under a hook
//! and verified, timed from outside through the program's public API.
//!
//! A trial is the unit of work of the simulation workloads (`npb-grid`,
//! `osr-tournament`, `daxpy-scaling`). Its simulated counters are
//! deterministic, so every run compares them with the recorded ones.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cobra_kernels::{Workload, WorkloadRun};
use cobra_machine::{Event, Machine, MachineConfig};
use cobra_omp::{NullHook, OmpRuntime, QuantumHook, Team};
use cobra_rt::{Cobra, CobraReport, Strategy, TelemetrySink};

use crate::hook::TimedHook;

/// Quantum of the Figs. 5–7 COBRA arms.
pub const FIG5_QUANTUM: u64 = 20_000;
/// Quantum of the tournament runs: fine enough to resolve sub-pass phase
/// changes, as in the harness's `osr_convergence` example.
pub const TOURNAMENT_QUANTUM: u64 = 500;

/// The paper's two machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mach {
    Smp4,
    Altix8,
}

impl Mach {
    pub fn name(self) -> &'static str {
        match self {
            Mach::Smp4 => "smp4",
            Mach::Altix8 => "altix8",
        }
    }

    pub fn cfg(self) -> MachineConfig {
        match self {
            Mach::Smp4 => MachineConfig::smp4(),
            Mach::Altix8 => MachineConfig::altix8(),
        }
    }

    /// One OpenMP thread per processor, as in the paper's runs.
    pub fn threads(self) -> usize {
        match self {
            Mach::Smp4 => 4,
            Mach::Altix8 => 8,
        }
    }
}

/// How a trial runs COBRA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// No COBRA: `NullHook` at the runtime's default quantum.
    Plain,
    /// One strategy at the Figs. 5–7 quantum, without telemetry; with a
    /// store directory (under the scratch dir) when `store` names one.
    Fig5 {
        strategy: Strategy,
        store: Option<&'static str>,
    },
    /// Adaptive tournament with OSR, a JSONL telemetry sink and a store
    /// directory, at [`TOURNAMENT_QUANTUM`]. `store` names the directory
    /// (under the pass's scratch dir) a cold run writes and a warm run
    /// reads.
    Tournament { store: &'static str },
}

/// One simulation trial of a workload's grid.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Stable name, also the key of the recorded counters.
    pub id: String,
    pub mach: Mach,
    pub threads: usize,
    /// Index of the program among the set-up's built workloads.
    pub program: usize,
    pub attach: Attach,
}

/// The simulated counters every run checks against the recorded ones:
/// `[cycles, retired instructions, L3 misses, bus transactions]`.
pub type Counters = [u64; 4];

/// Per-layer sums of one or more trials, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

/// What one trial produced.
pub struct TrialOut {
    pub counters: Counters,
    /// Host time from `Machine::new` to `detach` (the benchmark's own
    /// checks excluded).
    pub op: Duration,
    pub layers: Layers,
    pub report: Option<CobraReport>,
}

/// Counts the bytes a telemetry sink writes.
struct CountingWriter<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Create (if needed) and return the store directory `name` under `scratch`.
fn store_dir(scratch: &Path, name: &str) -> Result<std::path::PathBuf, String> {
    let dir = scratch.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("store dir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Host time of one `Workload::run`, split when traced.
#[derive(Default)]
struct RunTimes {
    /// The whole `Workload::run` call.
    run: Duration,
    /// Inside the hook's callbacks (traced runs only).
    hook: Duration,
    /// `on_quantum` calls (traced runs only).
    quanta: u64,
}

/// Run `wl` under `hook`, through the timing decorator when `traced`.
fn drive(
    wl: &dyn Workload,
    m: &mut Machine,
    team: Team,
    rt: &OmpRuntime,
    hook: &mut dyn QuantumHook,
    traced: bool,
) -> (WorkloadRun, RunTimes) {
    let t = Instant::now();
    if traced {
        let mut timed = TimedHook::new(hook);
        let run = wl.run(m, team, rt, &mut timed);
        let times = RunTimes {
            run: t.elapsed(),
            hook: timed.spent,
            quanta: timed.quanta,
        };
        (run, times)
    } else {
        let run = wl.run(m, team, rt, hook);
        let times = RunTimes {
            run: t.elapsed(),
            ..RunTimes::default()
        };
        (run, times)
    }
}

fn run_trial_inner(
    trial: &Trial,
    wl: &dyn Workload,
    scratch: &Path,
    traced: bool,
) -> Result<TrialOut, String> {
    let mut layers = Layers::default();
    let t0 = Instant::now();
    let mut m = Machine::new(trial.mach.cfg(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let team = Team::new(trial.threads);
    let (run, times, report, telemetry_bytes) = match trial.attach {
        Attach::Plain => {
            let rt = OmpRuntime::default();
            let (run, times) = drive(wl, &mut m, team, &rt, &mut NullHook, traced);
            (run, times, None, 0)
        }
        Attach::Fig5 { .. } | Attach::Tournament { .. } => {
            let bytes = Arc::new(AtomicU64::new(0));
            let t_attach = Instant::now();
            let (builder, quantum) = match trial.attach {
                Attach::Fig5 { strategy, store } => {
                    let mut builder = Cobra::builder().strategy(strategy);
                    if let Some(store) = store {
                        builder = builder.store(store_dir(scratch, store)?);
                    }
                    (builder, FIG5_QUANTUM)
                }
                Attach::Tournament { store } => {
                    let dir = store_dir(scratch, store)?;
                    let path = scratch.join(format!("{}.jsonl", trial.id.replace('/', "-")));
                    let file = std::fs::File::create(&path)
                        .map_err(|e| format!("telemetry file {}: {e}", path.display()))?;
                    let sink = TelemetrySink::jsonl(Box::new(CountingWriter {
                        inner: std::io::BufWriter::new(file),
                        bytes: bytes.clone(),
                    }));
                    let builder = Cobra::builder()
                        .strategy(Strategy::Adaptive)
                        .candidates(true)
                        .osr(true)
                        .telemetry(sink)
                        .store(dir);
                    (builder, TOURNAMENT_QUANTUM)
                }
                Attach::Plain => unreachable!("plain trials attach nothing"),
            };
            let mut cobra = builder.attach(&mut m);
            layers.add("rt.attach_s", t_attach.elapsed().as_secs_f64());
            let rt = OmpRuntime {
                quantum,
                ..OmpRuntime::default()
            };
            let (run, times) = drive(wl, &mut m, team, &rt, &mut cobra, traced);
            let t_detach = Instant::now();
            let report = cobra.detach(&mut m);
            layers.add("rt.detach_s", t_detach.elapsed().as_secs_f64());
            let b = bytes.load(Ordering::Relaxed);
            (run, times, Some(report), b)
        }
    };
    let op = t0.elapsed();
    wl.verify(&m.shared.mem)
        .map_err(|e| format!("{}: numerical verification failed: {e}", trial.id))?;
    if m.any_faulted() {
        return Err(format!("{}: a guest thread faulted", trial.id));
    }

    let total = m.total_stats();
    let inst = total.get(Event::InstRetired);
    let counters = [
        run.cycles,
        inst,
        total.get(Event::L3Miss),
        total.get(Event::BusMemory),
    ];
    let blocks = m.block_stats();
    if traced {
        layers.add("machine.sim_s", (times.run - times.hook).as_secs_f64());
        layers.add("rt.hook_s", times.hook.as_secs_f64());
        layers.add("rt.quanta", times.quanta as f64);
    }
    for (name, v) in [
        ("machine.inst_retired", inst),
        ("machine.core_cycles", total.get(Event::CpuCycles)),
        ("machine.stall_cycles", total.get(Event::StallCycles)),
        ("machine.block_builds", blocks.builds),
        (
            "machine.fallback_mem_boundary_cycles",
            blocks.fallback_mem_boundary,
        ),
        ("machine.fallback_sampling_cycles", blocks.fallback_sampling),
        ("machine.horizon_cycles", blocks.horizon_cycles),
        ("memsys.l1d_misses", total.get(Event::L1dMiss)),
        ("memsys.l3_misses", total.get(Event::L3Miss)),
        ("memsys.bus_transactions", total.get(Event::BusMemory)),
        ("memsys.coherent_events", total.coherent_events()),
        ("memsys.fast_hits", m.shared.memsys.fast_hits()),
        ("telemetry.bytes", telemetry_bytes),
    ] {
        layers.add(name, v as f64);
    }
    if let Some(r) = &report {
        for (name, v) in [
            ("perfmon.samples", r.samples_forwarded),
            ("rt.samples_merged", r.samples_merged),
            ("rt.ticks", r.ticks),
            ("rt.overhead_cycles", r.overhead_cycles),
            ("optimizer.applied", r.applied.len() as u64),
            ("optimizer.reverted", r.reverted.len() as u64),
            ("optimizer.candidates_trialed", r.candidates_trialed),
            ("optimizer.tournaments_promoted", r.tournaments_promoted),
            ("optimizer.phase_changes", r.phase_changes),
            ("verify.rejects", r.verify_rejects),
            ("osr.migrations", r.osr_migrations),
            ("osr.reverse_migrations", r.osr_reverse_migrations),
            ("osr.rejects", r.osr_rejects),
            ("telemetry.records", r.telemetry_records),
            ("telemetry.dropped", r.telemetry_dropped),
            ("store.warm_hits", r.warm_hits),
            ("store.warm_mismatches", r.warm_mismatches),
            ("store.saved_records", r.store_saved_records),
            ("store.skipped_records", r.store_skipped_records),
            ("store.errors", r.store_errors),
        ] {
            layers.add(name, v as f64);
        }
    }
    Ok(TrialOut {
        counters,
        op,
        layers,
        report,
    })
}

/// Run one trial, turning a panic anywhere in it into an error.
pub fn run_trial(
    trial: &Trial,
    wl: &dyn Workload,
    scratch: &Path,
    traced: bool,
) -> Result<TrialOut, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_trial_inner(trial, wl, scratch, traced)
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic".into());
        Err(format!("{}: panicked: {msg}", trial.id))
    })
}
