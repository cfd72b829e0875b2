//! The COBRA framework: attach to a running multithreaded program, monitor
//! it through the perfmon driver, and re-optimize its binary on the fly.
//!
//! [`Cobra`] implements [`QuantumHook`], so it plugs directly into the
//! OpenMP runtime's execution loop (the paper preloads COBRA as a shared
//! library before the program starts; our attach point is equivalent).
//! Responsibilities, mirroring Figure 4:
//!
//! * **monitoring** — poll the perfmon kernel buffers each quantum and
//!   forward every CPU's samples to its monitoring thread (threads are
//!   created at fork time, one per working thread);
//! * **profiling/optimization** — the optimization thread merges deltas
//!   system-wide, detects phases, selects traces and decides optimizations;
//! * **code deployment** — apply the returned plans to the live image at
//!   the quantum safe point: append optimized traces, patch `lfetch` words,
//!   redirect loop heads, or revert regressed deployments.
//!
//! Configure and attach through the fluent [`Cobra::builder`] API:
//!
//! ```ignore
//! let mut cobra = Cobra::builder()
//!     .sampling_period(2000)
//!     .deploy_mode(DeployMode::TraceCache)
//!     .telemetry(sink)
//!     .attach(&mut machine);
//! ```
//!
//! Helper-thread overhead is charged to the simulated machine per processed
//! sample — and, when telemetry is enabled, per drained telemetry record —
//! so reported speedups are net of monitoring cost.

use std::path::PathBuf;

use crossbeam::channel::{unbounded, Receiver, Sender};

use cobra_fleet::FleetClient;
use cobra_isa::CodeAddr;
use cobra_machine::Machine;
use cobra_omp::{QuantumHook, Team};
use cobra_perfmon::{PerfmonConfig, PerfmonDriver};
use cobra_store::{Snapshot, Store, StoreKey};

use crate::monitor::{monitoring_thread, optimization_thread, TickReply, ToMonitor, ToOpt};
use crate::optimizer::{DeployMode, Optimizer, OptimizerConfig, PlanAction, Strategy};
use crate::persist::{seed_from_snapshot, snapshot_from_final};
use crate::phase::{PhaseConfig, PhaseDetector};
use crate::profile::LatencyBands;
use crate::report::{AppliedPlan, CobraReport, RevertedPlan};
use crate::telemetry::{
    CpuCounterSnapshot, TelemetryEmitter, TelemetryEvent, TelemetryHub, TelemetrySink,
    DEFAULT_RING_CAPACITY,
};

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct CobraConfig {
    pub perfmon: PerfmonConfig,
    pub optimizer: OptimizerConfig,
    pub phase: PhaseConfig,
    /// User Sampling Buffer capacity per monitoring thread.
    pub usb_capacity: usize,
    /// Helper-thread cycles charged to the machine per processed sample
    /// (and per drained telemetry record when telemetry is enabled).
    pub overhead_per_sample: u64,
}

impl Default for CobraConfig {
    fn default() -> Self {
        CobraConfig {
            perfmon: PerfmonConfig {
                sampling_period: 2000,
                ..PerfmonConfig::default()
            },
            optimizer: OptimizerConfig::default(),
            phase: PhaseConfig::default(),
            usb_capacity: 8192,
            // The paper keeps overhead low with "relatively less frequent
            // sampling"; per-sample helper-thread cost on a spare context.
            overhead_per_sample: 8,
        }
    }
}

/// Fluent configuration for [`Cobra`]; created by [`Cobra::builder`],
/// consumed by [`CobraBuilder::attach`]. Starts from
/// [`CobraConfig::default`]; every setter overrides one knob.
#[derive(Debug)]
pub struct CobraBuilder {
    cfg: CobraConfig,
    sink: Option<TelemetrySink>,
    ring_capacity: usize,
    store: Option<PathBuf>,
    fleet: Option<String>,
}

impl Default for CobraBuilder {
    fn default() -> Self {
        CobraBuilder {
            cfg: CobraConfig::default(),
            sink: None,
            ring_capacity: DEFAULT_RING_CAPACITY,
            store: None,
            fleet: None,
        }
    }
}

impl CobraBuilder {
    /// Replace the whole configuration (setters applied afterwards still
    /// override individual fields).
    pub fn config(mut self, cfg: CobraConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// HPM sampling period in instructions retired.
    pub fn sampling_period(mut self, period: u64) -> Self {
        self.cfg.perfmon.sampling_period = period;
        self
    }

    /// Full perfmon driver configuration.
    pub fn perfmon(mut self, perfmon: PerfmonConfig) -> Self {
        self.cfg.perfmon = perfmon;
        self
    }

    /// Full optimizer configuration.
    pub fn optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.cfg.optimizer = optimizer;
        self
    }

    /// Optimization strategy (noprefetch / `.excl` / adaptive).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.optimizer.strategy = strategy;
        self
    }

    /// How rewrites reach the running binary.
    pub fn deploy_mode(mut self, deploy: DeployMode) -> Self {
        self.cfg.optimizer.deploy = deploy;
        self
    }

    /// Run the multi-version candidate tournament (generate, trial, and
    /// promote per-site rewrite candidates) instead of the one-shot
    /// classifier deployment.
    pub fn candidates(mut self, enabled: bool) -> Self {
        self.cfg.optimizer.candidates = enabled;
        self
    }

    /// On-stack replacement: arm verified mid-loop redirects when a trace
    /// version deploys (and the reverse map when it reverts), so in-flight
    /// threads migrate at their next back edge (`OptimizerConfig::osr`).
    pub fn osr(mut self, enabled: bool) -> Self {
        self.cfg.optimizer.osr = enabled;
        self
    }

    /// Phase-detector configuration.
    pub fn phase(mut self, phase: PhaseConfig) -> Self {
        self.cfg.phase = phase;
        self
    }

    /// User Sampling Buffer capacity per monitoring thread.
    pub fn usb_capacity(mut self, capacity: usize) -> Self {
        self.cfg.usb_capacity = capacity;
        self
    }

    /// Helper-thread cycles charged per processed sample / drained
    /// telemetry record.
    pub fn overhead_per_sample(mut self, cycles: u64) -> Self {
        self.cfg.overhead_per_sample = cycles;
        self
    }

    /// Record pipeline telemetry into `sink`.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Capacity of the bounded telemetry ring (records buffered between
    /// quantum drains; overflow is dropped and counted).
    pub fn telemetry_capacity(mut self, records: usize) -> Self {
        self.ring_capacity = records;
        self
    }

    /// Persist profiles and decisions to `dir` and warm-start from any
    /// snapshot already there that matches this binary and machine. A
    /// missing, mismatched, or damaged snapshot degrades to a cold start
    /// (counted in the report, never fatal); an updated snapshot is saved
    /// at detach.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Pool learning through a `cobra-fleet` aggregation server at `addr`
    /// (e.g. `"127.0.0.1:7070"`): fetch a fleet-aggregated warm seed at
    /// attach (it outranks the local store) and upload the detach snapshot.
    /// Every fleet failure degrades to the local store, then cold —
    /// counted in the report and telemetered, never fatal.
    pub fn fleet(mut self, addr: impl Into<String>) -> Self {
        self.fleet = Some(addr.into());
        self
    }

    /// Attach to a machine: program the HPMs, start the optimization
    /// thread. Monitoring threads are created lazily at thread fork.
    pub fn attach(self, machine: &mut Machine) -> Cobra {
        let CobraBuilder {
            cfg,
            sink,
            ring_capacity,
            store,
            fleet,
        } = self;
        let mut driver = PerfmonDriver::new(machine.num_cpus(), cfg.perfmon);
        driver.attach(machine);

        let hub = sink.map(|s| TelemetryHub::new(s, ring_capacity));
        let emitter = hub.as_ref().map(|h| h.emitter());

        let bands = LatencyBands::from_machine(&machine.shared.cfg);
        let mut optimizer = Optimizer::new(cfg.optimizer, machine.shared.code.image().clone());
        if let Some(e) = &emitter {
            optimizer.set_telemetry(e.clone());
        }
        let phases = PhaseDetector::new(cfg.phase);

        let mut report = CobraReport::default();
        // Fleet seed first: the aggregation server folds every peer's
        // history, so it outranks this process's local store. The pristine
        // main words are captured now — before any deployment patches the
        // image in place — for the detach upload.
        let fleet_ctx = fleet.map(|addr| {
            let image = machine.shared.code.image();
            FleetCtx {
                key: StoreKey::for_run(image, &machine.shared.cfg),
                image_words: image.words()[..image.main_len() as usize].to_vec(),
                addr,
            }
        });
        let mut fleet_seed: Option<Snapshot> = None;
        if let Some(ctx) = &fleet_ctx {
            match FleetClient::connect(&ctx.addr).and_then(|mut c| c.fetch_seed(&ctx.key)) {
                Ok(found) => fleet_seed = found,
                Err(detail) => {
                    report.fleet_errors += 1;
                    if let Some(e) = &emitter {
                        e.emit(TelemetryEvent::FleetError {
                            tick: 0,
                            cycle: machine.shared.cycle,
                            stage: "fetch".into(),
                            detail,
                        });
                    }
                }
            }
        }
        // Warm start: load a matching snapshot before the optimization
        // thread spawns, so seeds are in place for the very first tick.
        let store_ctx = store.map(|dir| {
            let store = Store::new(dir);
            let key = StoreKey::for_run(machine.shared.code.image(), &machine.shared.cfg);
            let lr = store.load(&key);
            report.store_skipped_records = lr.skipped_records;
            if let Some(err) = &lr.error {
                report.store_errors += 1;
                if let Some(e) = &emitter {
                    e.emit(TelemetryEvent::StoreError {
                        tick: 0,
                        cycle: machine.shared.cycle,
                        detail: err.clone(),
                    });
                }
            }
            // A fleet seed outranks the local snapshot (it already folds
            // this process's own uploads); the local snapshot still merges
            // into the save at detach.
            if fleet_seed.is_none() {
                if let Some(snap) = &lr.snapshot {
                    let seed = seed_from_snapshot(snap);
                    report.warm_started = true;
                    report.warm_seeded_decisions = seed.decisions.len();
                    report.warm_seeded_blacklist = seed.blacklist.len();
                    if let Some(e) = &emitter {
                        e.emit(TelemetryEvent::WarmStart {
                            tick: 0,
                            cycle: machine.shared.cycle,
                            seeded_decisions: seed.decisions.len(),
                            seeded_blacklist: seed.blacklist.len(),
                            skipped_records: lr.skipped_records,
                        });
                    }
                    optimizer.warm_start(seed);
                }
            }
            (store, key, lr.snapshot)
        });
        if let Some(snap) = &fleet_seed {
            let seed = seed_from_snapshot(snap);
            report.fleet_seeds += 1;
            report.warm_started = true;
            report.warm_seeded_decisions = seed.decisions.len();
            report.warm_seeded_blacklist = seed.blacklist.len();
            if let Some(e) = &emitter {
                e.emit(TelemetryEvent::FleetSeed {
                    tick: 0,
                    cycle: machine.shared.cycle,
                    seeded_decisions: seed.decisions.len(),
                    seeded_winners: seed.winners.len(),
                    seeded_blacklist: seed.blacklist.len(),
                    runs: snap.runs,
                });
            }
            optimizer.warm_start(seed);
        }
        // Warm seeds are re-verified against the live image inside
        // `warm_start`; surface any attach-time rejections even if the run
        // never reaches a tick (ticks overwrite this with the running total).
        report.verify_rejects = optimizer.verify_rejects();

        let (to_opt, opt_rx) = unbounded();
        let (reply_tx, replies) = unbounded();
        let opt_emitter = emitter.clone();
        let opt_join = std::thread::Builder::new()
            .name("cobra-optimizer".into())
            .spawn(move || {
                optimization_thread(optimizer, bands, phases, opt_rx, reply_tx, opt_emitter)
            })
            // Invariant: spawn only fails on host resource exhaustion —
            // nothing the guest program can trigger.
            .expect("spawn optimization thread");

        Cobra {
            monitors: (0..machine.num_cpus()).map(|_| None).collect(),
            cfg,
            driver,
            to_opt,
            replies,
            opt_join: Some(opt_join),
            tick: 0,
            report,
            hub,
            emitter,
            store_ctx,
            fleet_ctx,
            osr_watches: Vec::new(),
            osr_maps: Vec::new(),
        }
    }
}

struct MonitorHandle {
    tx: Sender<ToMonitor>,
    join: std::thread::JoinHandle<crate::monitor::MonitorStats>,
}

/// Fleet-server coordinates captured at attach: the snapshot key, the
/// pristine main image words (for server-side seed verification), and the
/// server address for the detach upload.
struct FleetCtx {
    addr: String,
    key: StoreKey,
    image_words: Vec<u64>,
}

/// One in-flight version transfer tracked to convergence: armed at a trace
/// deployment (forward) or a revert (reverse), retired at the first quantum
/// boundary where no running thread's PC is still inside `[lo, hi]` — the
/// body being migrated *away from*. The watch is kept even when OSR is off
/// (`COBRA_OSR=0`), so `ticks_to_all_optimized` measures the entry-only
/// convergence time the redirects are being compared against.
struct OsrWatch {
    plan_id: u64,
    /// Source body (inclusive) threads must vacate.
    lo: CodeAddr,
    hi: CodeAddr,
    /// Tick the transfer started.
    armed_tick: u64,
    /// True for revert drains (trace clone → original body).
    reverse: bool,
}

/// An attached COBRA instance.
pub struct Cobra {
    cfg: CobraConfig,
    driver: PerfmonDriver,
    monitors: Vec<Option<MonitorHandle>>,
    to_opt: Sender<ToOpt>,
    replies: Receiver<TickReply>,
    opt_join: Option<std::thread::JoinHandle<crate::monitor::OptFinal>>,
    tick: u64,
    report: CobraReport,
    hub: Option<TelemetryHub>,
    emitter: Option<TelemetryEmitter>,
    /// Store handle, snapshot key, and the prior snapshot (merged into the
    /// one saved at detach) when persistence is configured.
    store_ctx: Option<(Store, StoreKey, Option<Snapshot>)>,
    /// Fleet-server coordinates when pooled learning is configured.
    fleet_ctx: Option<FleetCtx>,
    /// Version transfers still draining (threads not yet all on the
    /// intended version).
    osr_watches: Vec<OsrWatch>,
    /// Verified forward state mapping per live trace deployment, kept so a
    /// revert can arm the reverse map.
    osr_maps: Vec<(u64, cobra_osr::OsrMap)>,
}

impl Cobra {
    /// Start configuring an instance; finish with [`CobraBuilder::attach`].
    pub fn builder() -> CobraBuilder {
        CobraBuilder::default()
    }

    fn emit(&self, event: TelemetryEvent) {
        if let Some(e) = &self.emitter {
            e.emit(event);
        }
    }

    fn ensure_monitor(&mut self, cpu: usize) {
        if self.monitors[cpu].is_some() {
            return;
        }
        let (tx, rx) = unbounded();
        let to_opt = self.to_opt.clone();
        let period = self.cfg.perfmon.sampling_period;
        let capacity = self.cfg.usb_capacity;
        let telemetry = self.emitter.clone();
        let join = std::thread::Builder::new()
            .name(format!("cobra-monitor-{cpu}"))
            .spawn(move || monitoring_thread(cpu as u32, period, capacity, rx, to_opt, telemetry))
            // Invariant: spawn only fails on host resource exhaustion.
            .expect("spawn monitoring thread");
        self.monitors[cpu] = Some(MonitorHandle { tx, join });
        self.report.monitors_spawned += 1;
    }

    fn apply_action(&mut self, machine: &mut Machine, action: PlanAction) {
        match action {
            PlanAction::Apply(plan) => {
                // OSR: prove the state mapping between the original body
                // and the trace clone against the *pre-deployment* image.
                // An unprovable map degrades to entry-only transfer (the
                // deployment still proceeds, unarmed); in-place plans have
                // an identity mapping and nothing to migrate.
                let mut osr_map = None;
                if let Some(t) = &plan.trace {
                    if plan.back_edge >= plan.loop_head {
                        let map = cobra_osr::OsrMap::for_trace(
                            plan.id,
                            plan.loop_head,
                            plan.back_edge,
                            t.expected_start,
                        );
                        match cobra_verify::check_osr_map(
                            machine.shared.code.image(),
                            &map,
                            plan.kind.into(),
                            &t.insns,
                        ) {
                            Ok(()) => osr_map = Some(map),
                            Err(e) => {
                                self.report.osr_rejects += 1;
                                self.emit(TelemetryEvent::OsrRejected {
                                    tick: self.tick,
                                    cycle: machine.shared.cycle,
                                    plan_id: plan.id,
                                    loop_head: plan.loop_head,
                                    reason: e.to_string(),
                                });
                            }
                        }
                    }
                }
                let trace_entry = plan.trace.as_ref().map(|t| {
                    // Invariant: both sides compute expected_start as
                    // bundle_align(len) over identical image copies kept in
                    // lock-step; divergence is an optimizer bug, not a
                    // guest-reachable state.
                    let start = machine.append_trace(&t.insns);
                    assert_eq!(
                        start, t.expected_start,
                        "optimizer/machine trace layout divergence"
                    );
                    start
                });
                // Patch word by word, remembering the overwritten words so
                // a mid-plan failure can roll back what already landed — a
                // half-applied plan must never stay live.
                let mut applied: Vec<(cobra_isa::CodeAddr, u64)> = Vec::new();
                for &(addr, word) in &plan.writes {
                    match machine.patch_word(addr, word) {
                        Ok(old) => applied.push((addr, old)),
                        Err(e) => {
                            for &(a, old) in applied.iter().rev() {
                                // Restoring a word we just wrote cannot
                                // fail; ignore rather than cascade.
                                let _ = machine.patch_word(a, old);
                            }
                            // The appended trace (if any) stays as dead
                            // text: the head redirect was rolled back, so
                            // nothing can reach it, and removing it would
                            // desync the optimizer's layout.
                            self.report.deploy_failures += 1;
                            self.emit(TelemetryEvent::DeployFailed {
                                tick: self.tick,
                                cycle: machine.shared.cycle,
                                plan_id: plan.id,
                                loop_head: plan.loop_head,
                                detail: format!("patching {addr}: {e}"),
                            });
                            let _ = self.to_opt.send(ToOpt::LoopPoisoned {
                                loop_head: plan.loop_head,
                            });
                            return;
                        }
                    }
                }
                self.emit(TelemetryEvent::Deploy {
                    tick: self.tick,
                    cycle: machine.shared.cycle,
                    plan_id: plan.id,
                    kind: plan.kind,
                    loop_head: plan.loop_head,
                    words_patched: plan.writes.len(),
                    trace_entry,
                });
                self.report.applied.push(AppliedPlan {
                    plan_id: plan.id,
                    kind: plan.kind,
                    loop_head: plan.loop_head,
                    description: plan.description,
                    tick: self.tick,
                    words_patched: plan.writes.len(),
                    trace_entry,
                    candidate: plan.candidate,
                });
                // The deployment landed whole: watch the original body
                // drain, and (when OSR is on) arm the verified redirects so
                // in-flight threads migrate at their next back edge.
                if let Some(map) = osr_map {
                    let (lo, hi) = map.source_range();
                    if self.cfg.optimizer.osr {
                        machine.arm_redirect(plan.id, &map.redirect_pairs());
                    }
                    self.osr_watches.push(OsrWatch {
                        plan_id: plan.id,
                        lo,
                        hi,
                        armed_tick: self.tick,
                        reverse: false,
                    });
                    self.osr_maps.push((plan.id, map));
                }
            }
            PlanAction::Revert {
                plan_id,
                loop_head,
                writes,
                reason,
            } => {
                // A failed restore write must degrade, never panic: stop
                // the revert where it failed, poison the loop so the
                // optimizer blacklists it, and keep the run alive.
                let mut restored = 0usize;
                for &(addr, old_word) in &writes {
                    match machine.patch_word(addr, old_word) {
                        Ok(_) => restored += 1,
                        Err(e) => {
                            self.report.revert_failures += 1;
                            self.emit(TelemetryEvent::RevertFailed {
                                tick: self.tick,
                                cycle: machine.shared.cycle,
                                plan_id,
                                loop_head,
                                addr,
                                words_restored: restored,
                                detail: e.to_string(),
                            });
                            let _ = self.to_opt.send(ToOpt::LoopPoisoned { loop_head });
                            self.report.reverted.push(RevertedPlan {
                                plan_id,
                                reason: format!(
                                    "{reason} [revert failed at {addr} after {restored}/{} words: {e}]",
                                    writes.len()
                                ),
                                tick: self.tick,
                            });
                            return;
                        }
                    }
                }
                self.emit(TelemetryEvent::Revert {
                    tick: self.tick,
                    cycle: machine.shared.cycle,
                    plan_id,
                    reason: reason.clone(),
                });
                self.report.reverted.push(RevertedPlan {
                    plan_id,
                    reason,
                    tick: self.tick,
                });
                // The original words are back, but threads inside the trace
                // clone would run the stale version until natural loop
                // completion — the unbounded half of the transfer problem.
                // Swap the plan's forward map for its reverse: redirect the
                // clone's back edge to the original body and watch the
                // clone drain.
                if let Some(pos) = self.osr_maps.iter().position(|(id, _)| *id == plan_id) {
                    let (_, map) = self.osr_maps.remove(pos);
                    if let Some(pos) = self.osr_watches.iter().position(|w| w.plan_id == plan_id) {
                        // The forward drain never finished; close it now —
                        // its elapsed ticks were spent un-migrated, and the
                        // version it migrated into is gone.
                        let w = self.osr_watches.remove(pos);
                        self.finish_osr_watch(machine, w);
                    }
                    let rev = map.reversed();
                    let (lo, hi) = rev.source_range();
                    if self.cfg.optimizer.osr {
                        machine.arm_redirect(plan_id, &rev.redirect_pairs());
                    }
                    self.osr_watches.push(OsrWatch {
                        plan_id,
                        lo,
                        hi,
                        armed_tick: self.tick,
                        reverse: true,
                    });
                }
            }
        }
    }

    /// Retire one version transfer: disarm its redirects, credit the
    /// migrations it served, and add its drain time to the
    /// time-to-optimized total.
    fn finish_osr_watch(&mut self, machine: &mut Machine, w: OsrWatch) {
        let migrations = machine.disarm_redirect(w.plan_id);
        let elapsed = self.tick.saturating_sub(w.armed_tick);
        self.report.ticks_to_all_optimized += elapsed;
        if w.reverse {
            self.report.osr_reverse_migrations += migrations;
            self.emit(TelemetryEvent::OsrRevert {
                tick: self.tick,
                cycle: machine.shared.cycle,
                plan_id: w.plan_id,
                migrations,
                ticks_since_revert: elapsed,
            });
        } else {
            self.report.osr_migrations += migrations;
            self.emit(TelemetryEvent::OsrMigrate {
                tick: self.tick,
                cycle: machine.shared.cycle,
                plan_id: w.plan_id,
                migrations,
                ticks_since_deploy: elapsed,
            });
        }
    }

    /// Retire every watch whose source body no running thread occupies.
    fn check_osr_watches(&mut self, machine: &mut Machine) {
        let mut i = 0;
        while i < self.osr_watches.len() {
            let w = &self.osr_watches[i];
            if machine.any_pc_in(w.lo, w.hi) {
                i += 1;
                continue;
            }
            let w = self.osr_watches.remove(i);
            self.finish_osr_watch(machine, w);
        }
    }

    /// Detach: stop sampling, shut down helper threads, return the report.
    pub fn detach(mut self, machine: &mut Machine) -> CobraReport {
        // Transfers still draining when the run ends: close them at the
        // final tick so their un-migrated time is still accounted.
        let leftover: Vec<OsrWatch> = self.osr_watches.drain(..).collect();
        for w in leftover {
            self.finish_osr_watch(machine, w);
        }
        self.report.guest_faults = machine.total_stats().get(cobra_machine::Event::GuestFaults);
        self.driver.detach(machine);
        for m in self.monitors.iter_mut().flatten() {
            let _ = m.tx.send(ToMonitor::Shutdown);
        }
        for slot in &mut self.monitors {
            if let Some(m) = slot.take() {
                let _ = m.join.join();
            }
        }
        let _ = self.to_opt.send(ToOpt::Shutdown);
        let fin = self.opt_join.take().and_then(|j| j.join().ok());
        if let Some(fin) = &fin {
            let store_ctx = self.store_ctx.take();
            let fleet_ctx = self.fleet_ctx.take();
            if let Some((store, key, prior)) = store_ctx {
                let fresh = snapshot_from_final(key, fin);
                let merged = match &prior {
                    Some(p) => cobra_store::merge(&[p.clone(), fresh.clone()]).unwrap_or(fresh),
                    None => fresh,
                };
                match store.save(&merged) {
                    Ok(path) => {
                        self.report.store_saved_records = merged.record_count() as u64;
                        self.emit(TelemetryEvent::StoreSave {
                            tick: self.tick,
                            cycle: machine.shared.cycle,
                            records: merged.record_count(),
                            path: path.display().to_string(),
                        });
                    }
                    Err(err) => {
                        self.report.store_errors += 1;
                        self.emit(TelemetryEvent::StoreError {
                            tick: self.tick,
                            cycle: machine.shared.cycle,
                            detail: err,
                        });
                    }
                }
            }
            if let Some(ctx) = fleet_ctx {
                // Upload only this run's own history (runs = 1); the server
                // folds it into the fleet accumulator. Uploading a locally
                // merged snapshot would double-count prior runs.
                let fresh = snapshot_from_final(ctx.key, fin);
                match FleetClient::connect(&ctx.addr)
                    .and_then(|mut c| c.upload(&fresh, Some(&ctx.image_words)))
                {
                    Ok((runs_total, _)) => {
                        self.report.fleet_uploads += 1;
                        self.emit(TelemetryEvent::FleetUpload {
                            tick: self.tick,
                            cycle: machine.shared.cycle,
                            records: fresh.record_count(),
                            runs_total,
                        });
                    }
                    Err(detail) => {
                        self.report.fleet_errors += 1;
                        self.emit(TelemetryEvent::FleetError {
                            tick: self.tick,
                            cycle: machine.shared.cycle,
                            stage: "upload".into(),
                            detail,
                        });
                    }
                }
            }
        }
        if let Some(hub) = self.hub.take() {
            self.emit(TelemetryEvent::Detach {
                tick: self.tick,
                cycle: machine.shared.cycle,
                records_dropped: hub.dropped(),
            });
            let (records, dropped) = hub.finish();
            self.report.telemetry_records = records;
            self.report.telemetry_dropped = dropped;
        }
        self.report.clone()
    }

    /// Read-only view of the activity report so far.
    pub fn report(&self) -> &CobraReport {
        &self.report
    }
}

impl QuantumHook for Cobra {
    fn on_fork(&mut self, _machine: &mut Machine, team: Team) {
        // "A monitoring thread is created when a working thread is forked."
        for cpu in 0..team.num_threads {
            self.ensure_monitor(cpu);
        }
        self.report.forks += 1;
    }

    fn on_quantum(&mut self, machine: &mut Machine) {
        self.driver.poll(machine);
        let mut forwarded = 0u64;
        let mut active = 0usize;
        for cpu in 0..self.monitors.len() {
            let Some(handle) = &self.monitors[cpu] else {
                continue;
            };
            active += 1;
            let batch = self.driver.drain(cpu);
            forwarded += batch.len() as u64;
            self.emit(TelemetryEvent::KernelDrain {
                tick: self.tick,
                cycle: machine.shared.cycle,
                cpu: cpu as u32,
                samples: batch.len(),
                dropped_total: self.driver.dropped(cpu),
            });
            // Invariant: monitor threads only exit on the Shutdown we send
            // at detach; a closed channel mid-run means a monitor panicked,
            // which is a runtime bug worth surfacing loudly.
            handle
                .tx
                .send(ToMonitor::Samples(batch))
                .expect("monitor alive");
            handle
                .tx
                .send(ToMonitor::Tick(self.tick))
                .expect("monitor alive");
        }
        self.report.samples_forwarded += forwarded;
        // Charge helper-thread overhead to the machine.
        let overhead = forwarded * self.cfg.overhead_per_sample;
        machine.shared.cycle += overhead;
        self.report.overhead_cycles += overhead;

        if active > 0 {
            // Invariant: the optimization thread runs until the Shutdown we
            // send at detach; losing it mid-run is a runtime bug (thread
            // panic), not a guest-reachable state.
            self.to_opt
                .send(ToOpt::BeginTick {
                    tick: self.tick,
                    cycle: machine.shared.cycle,
                    expected: active,
                })
                .expect("optimization thread alive");
            let reply = self.replies.recv().expect("optimization thread alive");
            self.report.samples_merged = reply.samples_merged;
            self.report.phase_changes = reply.phase_changes;
            self.report.stale_deltas = reply.stale_deltas;
            self.report.warm_hits = reply.warm_hits;
            self.report.warm_mismatches = reply.warm_mismatches;
            self.report.undecodable_loops = reply.undecodable_loops;
            self.report.verify_rejects = reply.verify_rejects;
            self.report.candidates_trialed = reply.candidates_trialed;
            self.report.tournaments_promoted = reply.tournaments_promoted;
            for action in reply.actions {
                self.apply_action(machine, action);
            }
        }
        self.check_osr_watches(machine);

        if self.emitter.is_some() {
            self.emit(TelemetryEvent::Quantum {
                tick: self.tick,
                cycle: machine.shared.cycle,
                samples_forwarded: forwarded,
                cpus: CpuCounterSnapshot::all(machine),
            });
        }
        // Drain the telemetry ring at the safe point. The synchronous tick
        // handshake guarantees every event this tick produced is already in
        // the ring, so the drained count — and the cycles charged for it —
        // is deterministic.
        if let Some(hub) = &mut self.hub {
            let drained = hub.drain();
            let cost = drained * self.cfg.overhead_per_sample;
            machine.shared.cycle += cost;
            self.report.overhead_cycles += cost;
            self.report.telemetry_records = hub.drained();
            self.report.telemetry_dropped = hub.dropped();
        }

        self.report.ticks += 1;
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_machine::MachineConfig;
    use cobra_omp::OmpRuntime;

    /// Attach/detach lifecycle on an idle machine.
    #[test]
    fn attach_detach_lifecycle() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.hlt();
            a.finish()
        };
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let cobra = Cobra::builder().attach(&mut m);
        let report = cobra.detach(&mut m);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.monitors_spawned, 0);
    }

    /// A trivial parallel region under COBRA: monitors spawn at fork, ticks
    /// are processed, no deployments on a coherence-free program.
    #[test]
    fn quiet_program_monitored_without_deployments() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.movi(4, 2_000);
            a.mov_to_lc(4);
            let top = a.new_label();
            a.bind(top);
            a.addi(5, 5, 1);
            a.br_cloop(top);
            a.hlt();
            a.finish()
        };
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let mut cobra = Cobra::builder().attach(&mut m);
        let rt = OmpRuntime {
            quantum: 1000,
            ..OmpRuntime::default()
        };
        rt.parallel_for(&mut m, Team::new(4), 0, 0, 4, &[], &mut cobra);
        let report = cobra.detach(&mut m);
        assert_eq!(report.forks, 1);
        assert_eq!(report.monitors_spawned, 4);
        assert!(report.ticks > 0);
        assert!(
            report.applied.is_empty(),
            "no coherent misses, no deployments"
        );
    }

    /// The deprecated entry point still attaches and behaves like the
    /// builder.
    /// Telemetry on a quiet program: quantum events with counter snapshots
    /// flow into a memory sink, and the report counts them.
    #[test]
    fn quiet_program_produces_quantum_telemetry() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.movi(4, 2_000);
            a.mov_to_lc(4);
            let top = a.new_label();
            a.bind(top);
            a.addi(5, 5, 1);
            a.br_cloop(top);
            a.hlt();
            a.finish()
        };
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        let rt = OmpRuntime {
            quantum: 1000,
            ..OmpRuntime::default()
        };
        rt.parallel_for(&mut m, Team::new(4), 0, 0, 4, &[], &mut cobra);
        let report = cobra.detach(&mut m);
        let log = log.lock().unwrap();
        assert!(log.count("quantum") as u64 >= report.ticks.min(1));
        assert_eq!(
            log.count("quantum")
                + log.count("usb_level")
                + log.count("kernel_drain")
                + log.count("detach"),
            log.len()
        );
        // Snapshots cover every CPU and carry monotone instruction counts.
        let quanta = log.of_category("quantum");
        let last = quanta.last().unwrap();
        if let TelemetryEvent::Quantum { cpus, .. } = &last.event {
            assert_eq!(cpus.len(), 4);
            assert!(cpus.iter().any(|c| c.inst_retired > 0));
        } else {
            unreachable!();
        }
        assert_eq!(report.telemetry_records, log.len() as u64);
        assert_eq!(report.telemetry_dropped, 0);
    }

    /// A revert whose restore write lands out of range must degrade — count
    /// the failure, annotate the reverted plan, emit telemetry — and never
    /// panic or leave the run wedged.
    #[test]
    fn failed_revert_degrades_without_panicking() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.hlt();
            a.finish()
        };
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        cobra.apply_action(
            &mut m,
            PlanAction::Revert {
                plan_id: 7,
                loop_head: 3,
                writes: vec![(9_999, 0)],
                reason: "cpi regression".into(),
            },
        );
        assert_eq!(cobra.report.revert_failures, 1);
        assert_eq!(cobra.report.reverted.len(), 1);
        assert!(
            cobra.report.reverted[0]
                .reason
                .contains("revert failed at 9999 after 0/1 words"),
            "reason: {}",
            cobra.report.reverted[0].reason
        );
        let report = cobra.detach(&mut m);
        assert_eq!(report.revert_failures, 1);
        let log = log.lock().unwrap();
        assert_eq!(log.count("revert_failed"), 1);
    }

    /// A revert that fails mid-way keeps the words it already restored and
    /// records how far it got.
    #[test]
    fn partial_revert_failure_reports_restored_count() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.addi(6, 6, 1);
            a.hlt();
            a.finish()
        };
        let word0 = image.word(0);
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let mut cobra = Cobra::builder().attach(&mut m);
        cobra.apply_action(
            &mut m,
            PlanAction::Revert {
                plan_id: 8,
                loop_head: 0,
                writes: vec![(0, word0), (9_999, 0)],
                reason: "trial complete".into(),
            },
        );
        assert_eq!(cobra.report.revert_failures, 1);
        assert!(cobra.report.reverted[0].reason.contains("after 1/2 words"));
        cobra.detach(&mut m);
    }

    /// A deployment that fails mid-plan rolls back every word it already
    /// wrote, counts the failure, and records no applied plan.
    #[test]
    fn failed_deploy_rolls_back_applied_words() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.hlt();
            a.finish()
        };
        let word0 = image.word(0);
        let nop = cobra_isa::encode(&cobra_isa::NOP_SLOT_M);
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        cobra.apply_action(
            &mut m,
            PlanAction::Apply(crate::optimizer::PatchPlan {
                id: 11,
                kind: crate::optimizer::OptKind::NoPrefetch,
                loop_head: 0,
                back_edge: 1,
                description: "injected half-applying plan".into(),
                candidate: None,
                writes: vec![(0, nop), (9_999, nop)],
                trace: None,
            }),
        );
        assert_eq!(cobra.report.deploy_failures, 1);
        assert!(
            cobra.report.applied.is_empty(),
            "half-applied plan recorded"
        );
        // The word that landed before the failure was rolled back.
        assert_eq!(m.patch_word(0, nop).unwrap(), word0);
        let report = cobra.detach(&mut m);
        assert_eq!(report.deploy_failures, 1);
        let log = log.lock().unwrap();
        assert_eq!(log.count("deploy_failed"), 1);
    }
}
