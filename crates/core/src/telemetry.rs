//! Structured telemetry for the COBRA decision pipeline.
//!
//! Every stage of the Figure-4 pipeline can explain itself through typed,
//! cycle-stamped events: quantum boundaries with per-CPU HPM counter
//! snapshots, kernel-buffer drains, USB occupancy, per-loop delinquency
//! classifications, phase-change triggers, trace-cache deployments, CPI
//! trial windows, and revert/blacklist decisions.
//!
//! Events flow through a **bounded, drop-counting ring** — helper threads
//! publish with a non-blocking `try_send` and never stall the optimization
//! pipeline; when the ring is full the record is counted and discarded —
//! into a per-run [`TelemetrySink`]:
//!
//! * [`TelemetrySink::memory`] — an in-process [`TelemetryLog`] with a
//!   query API, for tests and programmatic consumers;
//! * [`TelemetrySink::jsonl_file`] — a serde-backed JSON-Lines writer, one
//!   record per line, consumed by `cobra-repro ... --trace-out FILE` and
//!   summarized by `cobra-repro trace FILE`.
//!
//! Records carry a global sequence number assigned at emission. Events
//! emitted by one thread are totally ordered among themselves; interleaving
//! *across* helper threads within a tick is scheduling-dependent, but the
//! synchronous tick handshake guarantees every event of tick *t* is in the
//! ring before the framework drains it at the end of tick *t*, so drained
//! record *counts* (and the overhead cycles charged for them) stay
//! deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

use cobra_isa::CodeAddr;
use cobra_machine::{CpuStats, Machine};
use serde::{Deserialize, Serialize};

use crate::optimizer::OptKind;

/// Default ring capacity (records buffered between drains).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One CPU's HPM counter totals at a quantum boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuCounterSnapshot {
    pub cpu: u32,
    pub inst_retired: u64,
    pub l2_miss: u64,
    pub l3_miss: u64,
    pub bus_memory: u64,
    /// Sum of the coherent snoop-response events.
    pub coherent: u64,
}

impl CpuCounterSnapshot {
    pub fn from_stats(cpu: u32, stats: &CpuStats) -> Self {
        let (inst_retired, l2_miss, l3_miss, bus_memory, coherent) = stats.snapshot_counts();
        CpuCounterSnapshot {
            cpu,
            inst_retired,
            l2_miss,
            l3_miss,
            bus_memory,
            coherent,
        }
    }

    /// Snapshots for every CPU of a machine.
    pub fn all(machine: &Machine) -> Vec<CpuCounterSnapshot> {
        machine
            .stats()
            .iter()
            .enumerate()
            .map(|(cpu, s)| CpuCounterSnapshot::from_stats(cpu as u32, s))
            .collect()
    }
}

/// One pipeline event. Variants mirror the stages of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A quantum boundary processed by the framework, with per-CPU HPM
    /// counter snapshots.
    Quantum {
        tick: u64,
        cycle: u64,
        samples_forwarded: u64,
        cpus: Vec<CpuCounterSnapshot>,
    },
    /// One CPU's kernel sampling buffer drained into its monitoring thread.
    KernelDrain {
        tick: u64,
        cycle: u64,
        cpu: u32,
        samples: usize,
        dropped_total: u64,
    },
    /// A monitoring thread's User Sampling Buffer occupancy at tick reduce.
    UsbLevel {
        tick: u64,
        cpu: u32,
        occupancy: usize,
        capacity: usize,
        dropped_total: u64,
    },
    /// The optimizer classified a candidate loop's prefetch behaviour.
    LoopClassified {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        back_edge: CodeAddr,
        /// Whether the profile says the loop's prefetches are effective
        /// (worth keeping) — the §5.2 gate.
        prefetch_effective: bool,
        /// The rewrite chosen, or `None` when the optimizer declined.
        decision: Option<OptKind>,
    },
    /// A monitoring thread's delta arrived after its tick had already been
    /// folded and was dropped (`tick` is the latest folded tick at drop
    /// time; `delta_tick` is the tick the delta belonged to).
    StaleDelta {
        tick: u64,
        cpu: u32,
        delta_tick: u64,
    },
    /// The phase detector fired; profile history was discarded.
    PhaseChange { tick: u64, cycle: u64, phases: u64 },
    /// A plan was applied to the live image at a quantum safe point.
    Deploy {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        kind: OptKind,
        loop_head: CodeAddr,
        words_patched: usize,
        trace_entry: Option<CodeAddr>,
    },
    /// A post-deployment CPI trial window was judged.
    CpiTrial {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        post_ticks: u64,
        baseline_cpi: f64,
        post_cpi: f64,
        regressed: bool,
    },
    /// A regressed deployment was reverted on the live image.
    Revert {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        reason: String,
    },
    /// A loop was blacklisted (trialled once, never touched again).
    Blacklist {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
    },
    /// A revert failed mid-restore on the live image: the framework stopped
    /// writing, poisoned the loop, and kept running (never panics).
    RevertFailed {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        loop_head: CodeAddr,
        /// Address whose restore write failed.
        addr: CodeAddr,
        /// Words successfully restored before the failure.
        words_restored: usize,
        detail: String,
    },
    /// A deployment failed mid-apply on the live image: the framework
    /// rolled back the words already written and poisoned the loop.
    DeployFailed {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        loop_head: CodeAddr,
        detail: String,
    },
    /// One tournament candidate finished its trial window (and was
    /// reverted pending the tournament outcome).
    CandidateTrial {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        candidate: String,
        plan_id: u64,
        trial_ticks: u64,
        baseline_cpi: f64,
        cpi: f64,
    },
    /// A candidate tournament settled: either the lowest-CPI candidate was
    /// promoted or the loop was blacklisted.
    TournamentOutcome {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        /// Candidates the tournament started with.
        candidates: usize,
        winner: Option<String>,
        winner_cpi: Option<f64>,
        promoted: bool,
    },
    /// A candidate loop contained a word the decoder rejects; the loop was
    /// skipped (and blacklisted) instead of aborting the optimizer thread.
    UndecodableLoop {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
    },
    /// The `cobra-verify` deploy gate rejected a plan (loop blacklisted) or
    /// a warm seed (seed dropped); `reason` is the verifier's one-line
    /// violation summary.
    VerifyReject {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        reason: String,
    },
    /// A store snapshot matched this run's binary/machine key and seeded
    /// the optimizer at attach.
    WarmStart {
        tick: u64,
        cycle: u64,
        seeded_decisions: usize,
        seeded_blacklist: usize,
        /// Damaged store records skipped while loading the snapshot.
        skipped_records: u64,
    },
    /// The store could not provide (or persist) a snapshot — corrupt
    /// header, version/key mismatch, or I/O failure. The run continues
    /// cold; this event is the only trace of the rejection.
    StoreError {
        tick: u64,
        cycle: u64,
        detail: String,
    },
    /// An updated snapshot was committed to the store at detach.
    StoreSave {
        tick: u64,
        cycle: u64,
        records: usize,
        path: String,
    },
    /// A fleet aggregation server supplied the warm seed at attach (it
    /// outranks the local store; the store snapshot still merges into the
    /// detach save).
    FleetSeed {
        tick: u64,
        cycle: u64,
        seeded_decisions: usize,
        seeded_winners: usize,
        seeded_blacklist: usize,
        /// Runs the fleet had folded into the served seed.
        runs: u64,
    },
    /// The detach snapshot was uploaded to the fleet server.
    FleetUpload {
        tick: u64,
        cycle: u64,
        /// Records in the uploaded snapshot.
        records: usize,
        /// The server's folded run total for the key after this upload.
        runs_total: u64,
    },
    /// A fleet request failed; the run degraded to the local store (then
    /// cold) and continued. `stage` is `"fetch"` or `"upload"`.
    FleetError {
        tick: u64,
        cycle: u64,
        stage: String,
        detail: String,
    },
    /// Every thread left the original loop body after a trace deployment:
    /// the forward OSR redirects were disarmed. `migrations` counts the
    /// back edges actually diverted into the new version (0 under
    /// `COBRA_OSR=0`, where the watch still measures convergence).
    OsrMigrate {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        migrations: u64,
        /// Ticks from arming (deployment) to convergence — this plan's
        /// contribution to `ticks_to_all_optimized`.
        ticks_since_deploy: u64,
    },
    /// Every thread left a reverted trace clone: the reverse OSR redirects
    /// were disarmed. `migrations` counts back edges diverted back to the
    /// original body (without OSR, threads drain only at natural loop
    /// completion).
    OsrRevert {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        migrations: u64,
        /// Ticks from the revert to convergence.
        ticks_since_revert: u64,
    },
    /// `cobra-verify::check_osr_map` could not prove a deployment's state
    /// mapping total and type-correct; the deployment proceeded with
    /// entry-only transfer (no redirects armed).
    OsrRejected {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        loop_head: CodeAddr,
        reason: String,
    },
    /// The framework detached; final counters. Traces that also carry
    /// `block_*` counters (from the removed block-dispatch engine) still
    /// load; those keys are ignored.
    Detach {
        tick: u64,
        cycle: u64,
        records_dropped: u64,
    },
}

impl TelemetryEvent {
    /// Stable category name, used by summaries and query filters.
    pub fn category(&self) -> &'static str {
        match self {
            TelemetryEvent::Quantum { .. } => "quantum",
            TelemetryEvent::KernelDrain { .. } => "kernel_drain",
            TelemetryEvent::UsbLevel { .. } => "usb_level",
            TelemetryEvent::LoopClassified { .. } => "loop_classified",
            TelemetryEvent::StaleDelta { .. } => "stale_delta",
            TelemetryEvent::PhaseChange { .. } => "phase_change",
            TelemetryEvent::Deploy { .. } => "deploy",
            TelemetryEvent::CpiTrial { .. } => "cpi_trial",
            TelemetryEvent::Revert { .. } => "revert",
            TelemetryEvent::Blacklist { .. } => "blacklist",
            TelemetryEvent::RevertFailed { .. } => "revert_failed",
            TelemetryEvent::DeployFailed { .. } => "deploy_failed",
            TelemetryEvent::CandidateTrial { .. } => "candidate_trial",
            TelemetryEvent::TournamentOutcome { .. } => "tournament",
            TelemetryEvent::UndecodableLoop { .. } => "undecodable_loop",
            TelemetryEvent::VerifyReject { .. } => "verify_reject",
            TelemetryEvent::WarmStart { .. } => "warm_start",
            TelemetryEvent::StoreError { .. } => "store_error",
            TelemetryEvent::StoreSave { .. } => "store_save",
            TelemetryEvent::FleetSeed { .. } => "fleet_seed",
            TelemetryEvent::FleetUpload { .. } => "fleet_upload",
            TelemetryEvent::FleetError { .. } => "fleet_error",
            TelemetryEvent::OsrMigrate { .. } => "osr_migrate",
            TelemetryEvent::OsrRevert { .. } => "osr_revert",
            TelemetryEvent::OsrRejected { .. } => "osr_rejected",
            TelemetryEvent::Detach { .. } => "detach",
        }
    }
}

/// A sequenced event as it appears in sinks and trace files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Global emission order (one counter per attached run).
    pub seq: u64,
    pub event: TelemetryEvent,
}

struct EmitterShared {
    tx: Sender<TelemetryRecord>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

/// Cloneable, thread-safe event publisher. Emission is non-blocking: a
/// full ring drops the record and counts it, so telemetry can never stall
/// the monitoring or optimization threads.
#[derive(Clone)]
pub struct TelemetryEmitter {
    shared: Arc<EmitterShared>,
}

impl fmt::Debug for TelemetryEmitter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryEmitter")
            .field("emitted", &self.emitted())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TelemetryEmitter {
    /// Publish one event. Returns `false` when the ring was full and the
    /// record was dropped.
    pub fn emit(&self, event: TelemetryEvent) -> bool {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        match self.shared.tx.try_send(TelemetryRecord { seq, event }) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Records dropped so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Events emitted so far (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }
}

/// Where drained records go.
///
/// Sinks are cheap to clone (shared interior) so one sink can serve many
/// parallel runs — e.g. every arm of an `npbsuite` sweep appending to one
/// JSONL file.
#[derive(Clone)]
pub enum TelemetrySink {
    /// Append to an in-process [`TelemetryLog`].
    Memory(Arc<Mutex<TelemetryLog>>),
    /// Write each record as one JSON line.
    Jsonl(Arc<Mutex<Box<dyn Write + Send>>>),
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TelemetrySink::Memory(_) => "TelemetrySink::Memory",
            TelemetrySink::Jsonl(_) => "TelemetrySink::Jsonl",
        })
    }
}

impl TelemetrySink {
    /// An in-memory sink; query the returned log after the run.
    pub fn memory() -> (TelemetrySink, Arc<Mutex<TelemetryLog>>) {
        let log = Arc::new(Mutex::new(TelemetryLog::default()));
        (TelemetrySink::Memory(log.clone()), log)
    }

    /// A JSONL sink over an arbitrary writer.
    pub fn jsonl(writer: Box<dyn Write + Send>) -> TelemetrySink {
        TelemetrySink::Jsonl(Arc::new(Mutex::new(writer)))
    }

    /// A JSONL sink appending to `path` (created/truncated).
    pub fn jsonl_file(path: &std::path::Path) -> std::io::Result<TelemetrySink> {
        let f = std::fs::File::create(path)?;
        Ok(TelemetrySink::jsonl(Box::new(std::io::BufWriter::new(f))))
    }

    fn write(&self, record: TelemetryRecord) {
        match self {
            TelemetrySink::Memory(log) => {
                // A panicked holder leaves the log intact (records is just
                // a Vec); keep draining rather than poisoning telemetry.
                log.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .records
                    .push(record)
            }
            TelemetrySink::Jsonl(w) => {
                let mut w = w.lock().unwrap_or_else(|p| p.into_inner());
                // Invariant: every TelemetryEvent field is serde-derived
                // plain data; serialization cannot fail.
                let line = serde_json::to_string(&record).expect("telemetry record serializes");
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// Flush buffered output (JSONL sinks; no-op for memory).
    pub fn flush(&self) {
        if let TelemetrySink::Jsonl(w) = self {
            let _ = w.lock().unwrap_or_else(|p| p.into_inner()).flush();
        }
    }
}

/// The receiving half of the ring: owned by the framework, drained at
/// quantum safe points into the sink.
pub struct TelemetryHub {
    rx: Receiver<TelemetryRecord>,
    emitter: TelemetryEmitter,
    sink: TelemetrySink,
    drained: u64,
}

impl TelemetryHub {
    /// Build a hub with a bounded ring of `capacity` records.
    pub fn new(sink: TelemetrySink, capacity: usize) -> TelemetryHub {
        let (tx, rx) = bounded(capacity.max(1));
        let emitter = TelemetryEmitter {
            shared: Arc::new(EmitterShared {
                tx,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        };
        TelemetryHub {
            rx,
            emitter,
            sink,
            drained: 0,
        }
    }

    /// A publisher handle for a helper thread.
    pub fn emitter(&self) -> TelemetryEmitter {
        self.emitter.clone()
    }

    /// Move every buffered record into the sink; returns how many records
    /// were processed (the unit the framework charges overhead cycles for).
    pub fn drain(&mut self) -> u64 {
        let mut n = 0u64;
        while let Ok(rec) = self.rx.try_recv() {
            self.sink.write(rec);
            n += 1;
        }
        self.drained += n;
        n
    }

    /// Records drained into the sink over the hub's lifetime.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Records dropped at emission because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.emitter.dropped()
    }

    /// Final drain + sink flush at detach.
    pub fn finish(mut self) -> (u64, u64) {
        self.drain();
        self.sink.flush();
        (self.drained, self.emitter.dropped())
    }
}

/// In-memory record store with a small query API.
#[derive(Debug, Default)]
pub struct TelemetryLog {
    records: Vec<TelemetryRecord>,
}

impl TelemetryLog {
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one category, in emission order.
    pub fn of_category(&self, category: &str) -> Vec<&TelemetryRecord> {
        self.records
            .iter()
            .filter(|r| r.event.category() == category)
            .collect()
    }

    pub fn count(&self, category: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.event.category() == category)
            .count()
    }

    /// `(tick, plan_id)` of every deployment, in order.
    pub fn deployments(&self) -> Vec<(u64, u64)> {
        self.records
            .iter()
            .filter_map(|r| match &r.event {
                TelemetryEvent::Deploy { tick, plan_id, .. } => Some((*tick, *plan_id)),
                _ => None,
            })
            .collect()
    }

    /// Summarize, exactly as `cobra-repro trace` does for a file.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::from_records(&self.records)
    }
}

/// Aggregate view of a trace (from a log or a JSONL file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    pub total_records: u64,
    /// `(category, count)` sorted by category name.
    pub per_category: Vec<(String, u64)>,
    /// One line per deployment: `(tick, plan_id, kind, loop_head)`.
    pub deployments: Vec<(u64, u64, String, CodeAddr)>,
    /// One line per revert: `(tick, plan_id, reason)`.
    pub reverts: Vec<(u64, u64, String)>,
    pub phase_changes: u64,
    /// Ring drops reported by the final `detach` record, if present.
    pub records_dropped: u64,
    /// Fleet traffic: `(uploads, seeds, errors)`. Zero for traces recorded
    /// without `builder().fleet(addr)`.
    #[serde(default)]
    pub fleet: (u64, u64, u64),
    /// On-stack replacement totals: `(migrations, reverse_migrations,
    /// rejects)` summed over the `osr_*` records. Zero for traces recorded
    /// before OSR existed or with it off.
    #[serde(default)]
    pub osr: (u64, u64, u64),
}

impl TraceSummary {
    pub fn from_records(records: &[TelemetryRecord]) -> TraceSummary {
        let mut per_category: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut deployments = Vec::new();
        let mut reverts = Vec::new();
        let mut phase_changes = 0u64;
        let mut records_dropped = 0u64;
        let mut osr = (0u64, 0u64, 0u64);
        for r in records {
            *per_category.entry(r.event.category()).or_insert(0) += 1;
            match &r.event {
                TelemetryEvent::Deploy {
                    tick,
                    plan_id,
                    kind,
                    loop_head,
                    ..
                } => {
                    deployments.push((*tick, *plan_id, kind.name().to_string(), *loop_head));
                }
                TelemetryEvent::Revert {
                    tick,
                    plan_id,
                    reason,
                    ..
                } => {
                    reverts.push((*tick, *plan_id, reason.clone()));
                }
                TelemetryEvent::PhaseChange { .. } => phase_changes += 1,
                TelemetryEvent::OsrMigrate { migrations, .. } => osr.0 += migrations,
                TelemetryEvent::OsrRevert { migrations, .. } => osr.1 += migrations,
                TelemetryEvent::OsrRejected { .. } => osr.2 += 1,
                TelemetryEvent::Detach {
                    records_dropped: d, ..
                } => records_dropped = *d,
                _ => {}
            }
        }
        let fleet = (
            per_category.get("fleet_upload").copied().unwrap_or(0),
            per_category.get("fleet_seed").copied().unwrap_or(0),
            per_category.get("fleet_error").copied().unwrap_or(0),
        );
        TraceSummary {
            total_records: records.len() as u64,
            per_category: per_category
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            deployments,
            reverts,
            phase_changes,
            records_dropped,
            fleet,
            osr,
        }
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} telemetry records ({} dropped at emission)",
            self.total_records, self.records_dropped
        )?;
        writeln!(f, "events per category:")?;
        for (cat, n) in &self.per_category {
            writeln!(f, "  {cat:<16} {n}")?;
        }
        writeln!(f, "deployment timeline ({}):", self.deployments.len())?;
        for (tick, plan_id, kind, head) in &self.deployments {
            writeln!(f, "  tick {tick:>5}: plan {plan_id} {kind} @ loop {head}")?;
        }
        writeln!(f, "reverts ({}):", self.reverts.len())?;
        for (tick, plan_id, reason) in &self.reverts {
            writeln!(f, "  tick {tick:>5}: plan {plan_id} — {reason}")?;
        }
        writeln!(f, "phase changes: {}", self.phase_changes)?;
        if self.fleet != (0, 0, 0) {
            writeln!(
                f,
                "fleet: {} upload(s), {} seed(s), {} error(s)",
                self.fleet.0, self.fleet.1, self.fleet.2
            )?;
        }
        if self.osr != (0, 0, 0) {
            writeln!(
                f,
                "osr: {} migration(s), {} reverse migration(s), {} rejected map(s)",
                self.osr.0, self.osr.1, self.osr.2
            )?;
        }
        Ok(())
    }
}

/// Parse a JSONL trace back into records (inverse of the JSONL sink).
pub fn read_jsonl(reader: impl std::io::Read) -> Result<Vec<TelemetryRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in std::io::BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let value: serde_json::Value =
            serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let rec =
            serde_json::from_value(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantum(tick: u64) -> TelemetryEvent {
        TelemetryEvent::Quantum {
            tick,
            cycle: tick * 1000,
            samples_forwarded: 4,
            cpus: vec![],
        }
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let (sink, log) = TelemetrySink::memory();
        let mut hub = TelemetryHub::new(sink, 4);
        let em = hub.emitter();
        let mut accepted = 0;
        for t in 0..10 {
            if em.emit(quantum(t)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "ring capacity bounds acceptance");
        assert_eq!(em.dropped(), 6);
        assert_eq!(hub.drain(), 4);
        assert_eq!(hub.dropped(), 6);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 4);
        // The four accepted records kept their emission order.
        let ticks: Vec<u64> = log
            .records()
            .iter()
            .map(|r| match r.event {
                TelemetryEvent::Quantum { tick, .. } => tick,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ticks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_thread_emission_order_is_preserved() {
        let (sink, log) = TelemetrySink::memory();
        let mut hub = TelemetryHub::new(sink, 1024);
        let mut joins = Vec::new();
        for cpu in 0..4u32 {
            let em = hub.emitter();
            joins.push(std::thread::spawn(move || {
                for tick in 0..50 {
                    em.emit(TelemetryEvent::UsbLevel {
                        tick,
                        cpu,
                        occupancy: tick as usize,
                        capacity: 64,
                        dropped_total: 0,
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        hub.drain();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 200);
        // Global seqs are unique; within each emitting thread both seq and
        // payload order are strictly increasing.
        let mut seqs: Vec<u64> = log.records().iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 200);
        for cpu in 0..4u32 {
            let per: Vec<(u64, u64)> = log
                .records()
                .iter()
                .filter_map(|r| match r.event {
                    TelemetryEvent::UsbLevel { tick, cpu: c, .. } if c == cpu => {
                        Some((r.seq, tick))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(per.len(), 50);
            assert!(
                per.windows(2).all(|w| w[0].0 < w[1].0),
                "seq order per thread"
            );
            assert!(
                per.windows(2).all(|w| w[0].1 < w[1].1),
                "payload order per thread"
            );
        }
    }

    #[test]
    fn summary_counts_categories_and_timelines() {
        let records = vec![
            TelemetryRecord {
                seq: 0,
                event: quantum(0),
            },
            TelemetryRecord {
                seq: 1,
                event: TelemetryEvent::Deploy {
                    tick: 3,
                    cycle: 3000,
                    plan_id: 0,
                    kind: OptKind::NoPrefetch,
                    loop_head: 40,
                    words_patched: 3,
                    trace_entry: Some(96),
                },
            },
            TelemetryRecord {
                seq: 2,
                event: TelemetryEvent::Revert {
                    tick: 9,
                    cycle: 9000,
                    plan_id: 0,
                    reason: "CPI regressed".into(),
                },
            },
            TelemetryRecord {
                seq: 3,
                event: TelemetryEvent::PhaseChange {
                    tick: 9,
                    cycle: 9000,
                    phases: 2,
                },
            },
            TelemetryRecord {
                seq: 4,
                event: TelemetryEvent::Detach {
                    tick: 10,
                    cycle: 9900,
                    records_dropped: 7,
                },
            },
        ];
        let s = TraceSummary::from_records(&records);
        assert_eq!(s.total_records, 5);
        assert_eq!(s.deployments, vec![(3, 0, "noprefetch".to_string(), 40)]);
        assert_eq!(s.reverts.len(), 1);
        assert_eq!(s.phase_changes, 1);
        assert_eq!(s.records_dropped, 7);
        let text = format!("{s}");
        assert!(text.contains("deploy"));
        assert!(text.contains("plan 0 noprefetch @ loop 40"));
    }

    /// OSR records roll up into the summary's `(migrations, reverse,
    /// rejects)` triple and render one line; summaries serialized before
    /// the field existed still load with zeros.
    #[test]
    fn summary_aggregates_osr_records() {
        let records = vec![
            TelemetryRecord {
                seq: 0,
                event: TelemetryEvent::OsrMigrate {
                    tick: 4,
                    cycle: 4000,
                    plan_id: 0,
                    migrations: 3,
                    ticks_since_deploy: 1,
                },
            },
            TelemetryRecord {
                seq: 1,
                event: TelemetryEvent::OsrRevert {
                    tick: 9,
                    cycle: 9000,
                    plan_id: 0,
                    migrations: 4,
                    ticks_since_revert: 2,
                },
            },
            TelemetryRecord {
                seq: 2,
                event: TelemetryEvent::OsrRejected {
                    tick: 2,
                    cycle: 2000,
                    plan_id: 1,
                    loop_head: 40,
                    reason: "map not total".into(),
                },
            },
        ];
        let s = TraceSummary::from_records(&records);
        assert_eq!(s.osr, (3, 4, 1));
        let text = format!("{s}");
        assert!(
            text.contains("osr: 3 migration(s), 4 reverse migration(s), 1 rejected map(s)"),
            "{text}"
        );

        // Legacy wire shape: a summary without the `osr` field.
        let mut v = serde::Serialize::to_value(&s);
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "osr");
        } else {
            panic!("summary serializes to an object");
        }
        let back: TraceSummary = serde::Deserialize::from_value(&v).expect("tolerant deserialize");
        assert_eq!(back.osr, (0, 0, 0));
        assert!(
            !format!("{back}").contains("osr:"),
            "zero triple is omitted"
        );
    }

    /// A `detach` line as traces recorded with the block-dispatch engine
    /// wrote it (its `block_*` counters included) still reads and
    /// summarizes; the extra keys are ignored.
    #[test]
    fn detach_lines_with_block_counters_still_load() {
        // Recorded by `cobra-repro fig5 --machine smp4 --trace-out` before
        // the block-dispatch engine was removed.
        let line = r#"{"seq":2009,"event":{"Detach":{"tick":112,"cycle":657208,"records_dropped":0,"block_fallback_mem_boundary":475564,"block_fallback_sampling":1926,"block_fallback_no_running":0,"block_fallback_other":0,"block_horizon_stretches":109,"block_horizon_cycles":1005}}}"#;
        let records = read_jsonl(format!("{line}\n").as_bytes()).expect("legacy line parses");
        assert_eq!(
            records,
            vec![TelemetryRecord {
                seq: 2009,
                event: TelemetryEvent::Detach {
                    tick: 112,
                    cycle: 657_208,
                    records_dropped: 0,
                },
            }]
        );
        let s = TraceSummary::from_records(&records);
        assert_eq!(s.total_records, 1);
        let text = format!("{s}");
        assert!(
            text.contains("1 telemetry records (0 dropped at emission)"),
            "{text}"
        );
        assert!(!text.contains("block"), "{text}");
    }
}
