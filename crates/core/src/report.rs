//! What COBRA did to a run — deployment log and bookkeeping, used by the
//! harness to explain each experiment's result. A report is the fold of the
//! run's telemetry events: the runtime folds each event as it is emitted,
//! and `TraceSummary` folds a trace file the same way.

use cobra_isa::CodeAddr;
use serde::{Deserialize, Serialize};

use crate::optimizer::OptKind;
use crate::telemetry::{SeedOutcome, TelemetryEvent};

/// One applied deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppliedPlan {
    pub plan_id: u64,
    pub kind: OptKind,
    pub loop_head: CodeAddr,
    pub description: String,
    /// Quantum tick at which it was deployed.
    pub tick: u64,
    /// Words written (address count).
    pub words_patched: usize,
    /// Trace-cache entry, if trace-deployed.
    pub trace_entry: Option<CodeAddr>,
    /// Tournament candidate name (trial, promoted winner, or warm-resumed
    /// winner); `None` for classic one-shot deployments.
    #[serde(default)]
    pub candidate: Option<String>,
}

/// One reverted deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RevertedPlan {
    pub plan_id: u64,
    pub reason: String,
    pub tick: u64,
}

/// Full activity report for one attached run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CobraReport {
    /// Samples captured by the perfmon driver and forwarded to monitors.
    pub samples_forwarded: u64,
    /// Samples merged by the optimization thread.
    pub samples_merged: u64,
    /// Quantum ticks processed.
    pub ticks: u64,
    /// Parallel-region forks observed.
    pub forks: u64,
    /// Monitoring threads spawned.
    pub monitors_spawned: usize,
    /// Phase changes detected.
    pub phase_changes: u64,
    /// Deployments applied, in order.
    pub applied: Vec<AppliedPlan>,
    /// Deployments reverted, in order.
    pub reverted: Vec<RevertedPlan>,
    /// Cycles charged to the machine for helper-thread overhead.
    pub overhead_cycles: u64,
    /// Telemetry records drained into the sink (0 when telemetry is off).
    pub telemetry_records: u64,
    /// Telemetry records dropped because the ring was full.
    pub telemetry_dropped: u64,
    /// Monitoring-thread deltas dropped because they arrived after their
    /// tick had already been folded.
    #[serde(default)]
    pub stale_deltas: u64,
    /// Guest memory faults taken by working threads over the run.
    #[serde(default)]
    pub guest_faults: u64,
    /// Whether the optimizer warm-started from a persisted snapshot.
    #[serde(default)]
    pub warm_started: bool,
    /// Prior decisions seeded into the optimizer at warm start.
    #[serde(default)]
    pub warm_seeded_decisions: usize,
    /// Prior blacklist entries seeded at warm start.
    #[serde(default)]
    pub warm_seeded_blacklist: usize,
    /// Seeded decisions confirmed by the live profile and fast-tracked.
    #[serde(default)]
    pub warm_hits: u64,
    /// Seeded decisions contradicted by the live profile and dropped.
    #[serde(default)]
    pub warm_mismatches: u64,
    /// Hot loops skipped because a body word no longer decodes.
    #[serde(default)]
    pub undecodable_loops: u64,
    /// Plans or warm seeds rejected by the `cobra-verify` deploy gate
    /// (each rejection blacklists its loop or drops its seed).
    #[serde(default)]
    pub verify_rejects: u64,
    /// Damaged store records skipped while loading the snapshot.
    #[serde(default)]
    pub store_skipped_records: u64,
    /// Store load/save failures (each degrades gracefully and is counted).
    #[serde(default)]
    pub store_errors: u64,
    /// Records in the snapshot saved at detach (0 when no store configured).
    #[serde(default)]
    pub store_saved_records: u64,
    /// Reverts that failed mid-restore on the live image (each one stops
    /// the revert and poisons its loop — never panics).
    #[serde(default)]
    pub revert_failures: u64,
    /// Deployments that failed mid-apply and were rolled back.
    #[serde(default)]
    pub deploy_failures: u64,
    /// Tournament candidate trials completed (deploy + revert pairs).
    #[serde(default)]
    pub candidates_trialed: u64,
    /// Tournaments that ended by promoting a winner.
    #[serde(default)]
    pub tournaments_promoted: u64,
    /// Detach snapshots uploaded to the fleet aggregation server.
    #[serde(default)]
    pub fleet_uploads: u64,
    /// Warm seeds obtained from the fleet server at attach.
    #[serde(default)]
    pub fleet_seeds: u64,
    /// Fleet requests that failed (each degraded to local store, then
    /// cold — counted, telemetered, never fatal).
    #[serde(default)]
    pub fleet_errors: u64,
    /// Back edges diverted into a freshly deployed trace version by armed
    /// OSR redirects (mid-loop forward migrations).
    #[serde(default)]
    pub osr_migrations: u64,
    /// Back edges diverted out of a reverted trace clone back to the
    /// original body (mid-loop reverse migrations).
    #[serde(default)]
    pub osr_reverse_migrations: u64,
    /// Deployments whose OSR state mapping `cobra-verify::check_osr_map`
    /// could not prove; each degraded to entry-only transfer.
    #[serde(default)]
    pub osr_rejects: u64,
    /// Summed ticks from each version transfer (deploy or revert) until
    /// every thread ran the intended version — the time-to-optimized
    /// metric. Tracked whether or not OSR is armed, so `COBRA_OSR=0` runs
    /// report the entry-only convergence time for comparison.
    #[serde(default)]
    pub ticks_to_all_optimized: u64,
}

impl CobraReport {
    /// Fold one event into the report — the only code that changes a field,
    /// apart from the ring's own `telemetry_records`/`telemetry_dropped`
    /// totals. Counts add up, so a trace of several runs folds into a sum.
    pub fn apply(&mut self, event: &TelemetryEvent) {
        use TelemetryEvent as E;
        match event {
            E::Quantum {
                samples_forwarded, ..
            } => {
                self.ticks += 1;
                self.samples_forwarded += samples_forwarded;
            }
            // Each tick a monitor reduces its whole buffer into one delta,
            // merged unless stale (subtracted below).
            E::UsbLevel { occupancy, .. } => self.samples_merged += *occupancy as u64,
            E::StaleDelta { samples, .. } => {
                self.stale_deltas += 1;
                self.samples_merged = self.samples_merged.saturating_sub(*samples);
            }
            E::LoopClassified { seed, .. } => match seed {
                Some(SeedOutcome::Hit) => self.warm_hits += 1,
                Some(SeedOutcome::Mismatch) => self.warm_mismatches += 1,
                None => {}
            },
            E::PhaseChange { .. } => self.phase_changes += 1,
            E::Deploy {
                tick,
                plan_id,
                kind,
                loop_head,
                words_patched,
                trace_entry,
                description,
                candidate,
                ..
            } => self.applied.push(AppliedPlan {
                plan_id: *plan_id,
                kind: *kind,
                loop_head: *loop_head,
                description: description.clone(),
                tick: *tick,
                words_patched: *words_patched,
                trace_entry: *trace_entry,
                candidate: candidate.clone(),
            }),
            E::Revert {
                tick,
                plan_id,
                reason,
                ..
            } => self.reverted.push(RevertedPlan {
                plan_id: *plan_id,
                reason: reason.clone(),
                tick: *tick,
            }),
            E::RevertFailed {
                tick,
                plan_id,
                addr,
                words_restored,
                detail,
                reason,
                words_total,
                ..
            } => {
                self.revert_failures += 1;
                self.reverted.push(RevertedPlan {
                    plan_id: *plan_id,
                    reason: format!(
                        "{reason} [revert failed at {addr} after {words_restored}/{words_total} words: {detail}]"
                    ),
                    tick: *tick,
                });
            }
            E::DeployFailed { .. } => self.deploy_failures += 1,
            E::CandidateTrial { .. } => self.candidates_trialed += 1,
            E::TournamentOutcome { promoted, .. } => {
                self.tournaments_promoted += u64::from(*promoted)
            }
            E::UndecodableLoop { .. } => self.undecodable_loops += 1,
            E::VerifyReject { .. } => self.verify_rejects += 1,
            // Either seed source warm-starts the run.
            E::WarmStart {
                seeded_decisions,
                seeded_blacklist,
                skipped_records,
                ..
            }
            | E::FleetSeed {
                seeded_decisions,
                seeded_blacklist,
                skipped_records,
                ..
            } => {
                self.fleet_seeds += u64::from(matches!(event, E::FleetSeed { .. }));
                self.warm_started = true;
                self.warm_seeded_decisions += seeded_decisions;
                self.warm_seeded_blacklist += seeded_blacklist;
                self.store_skipped_records += skipped_records;
            }
            E::StoreError {
                skipped_records, ..
            } => {
                self.store_errors += 1;
                self.store_skipped_records += skipped_records;
            }
            E::StoreSave { records, .. } => self.store_saved_records += *records as u64,
            E::FleetUpload { .. } => self.fleet_uploads += 1,
            E::FleetError { .. } => self.fleet_errors += 1,
            E::OsrMigrate {
                migrations,
                ticks_since_deploy,
                ..
            } => {
                self.osr_migrations += migrations;
                self.ticks_to_all_optimized += ticks_since_deploy;
            }
            E::OsrRevert {
                migrations,
                ticks_since_revert,
                ..
            } => {
                self.osr_reverse_migrations += migrations;
                self.ticks_to_all_optimized += ticks_since_revert;
            }
            E::OsrRejected { .. } => self.osr_rejects += 1,
            E::Detach {
                records_dropped,
                forks,
                monitors_spawned,
                guest_faults,
                overhead_cycles,
                ..
            } => {
                self.telemetry_dropped += records_dropped;
                self.forks += forks;
                self.monitors_spawned += monitors_spawned;
                self.guest_faults += guest_faults;
                self.overhead_cycles += overhead_cycles;
            }
            E::KernelDrain { .. } | E::CpiTrial { .. } | E::Blacklist { .. } => {}
        }
    }

    /// Deployments still in effect at the end of the run.
    pub fn active_deployments(&self) -> usize {
        self.applied
            .iter()
            .filter(|a| !self.reverted.iter().any(|r| r.plan_id == a.plan_id))
            .count()
    }

    /// Count of applied deployments of one kind.
    pub fn applied_of_kind(&self, kind: OptKind) -> usize {
        self.applied.iter().filter(|a| a.kind == kind).count()
    }

    /// One-line summary for experiment tables. Tournament and failure
    /// counters only appear when non-zero, so classic runs keep their
    /// PR 6-era summary byte-identical.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} deployments ({} noprefetch, {} excl), {} reverts, {} phase changes, {} samples",
            self.applied.len(),
            self.applied_of_kind(OptKind::NoPrefetch),
            self.applied_of_kind(OptKind::ExclHint),
            self.reverted.len(),
            self.phase_changes,
            self.samples_merged,
        );
        if self.candidates_trialed > 0 || self.tournaments_promoted > 0 {
            s.push_str(&format!(
                ", {} candidate trials, {} tournaments won",
                self.candidates_trialed, self.tournaments_promoted,
            ));
        }
        if self.revert_failures > 0 || self.deploy_failures > 0 {
            s.push_str(&format!(
                ", {} revert failures, {} deploy failures",
                self.revert_failures, self.deploy_failures,
            ));
        }
        if self.osr_migrations > 0 || self.osr_reverse_migrations > 0 || self.osr_rejects > 0 {
            s.push_str(&format!(
                ", {} osr migrations ({} reverse, {} rejects)",
                self.osr_migrations, self.osr_reverse_migrations, self.osr_rejects,
            ));
        }
        if self.ticks_to_all_optimized > 0 {
            s.push_str(&format!(
                ", {} ticks to all-optimized",
                self.ticks_to_all_optimized,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accounting() {
        let mut r = CobraReport::default();
        r.applied.push(AppliedPlan {
            plan_id: 0,
            kind: OptKind::NoPrefetch,
            loop_head: 10,
            description: "x".into(),
            tick: 1,
            words_patched: 3,
            trace_entry: None,
            candidate: None,
        });
        r.applied.push(AppliedPlan {
            plan_id: 1,
            kind: OptKind::ExclHint,
            loop_head: 90,
            description: "y".into(),
            tick: 2,
            words_patched: 2,
            trace_entry: Some(300),
            candidate: None,
        });
        r.reverted.push(RevertedPlan {
            plan_id: 1,
            reason: "regressed".into(),
            tick: 5,
        });
        assert_eq!(r.active_deployments(), 1);
        assert_eq!(r.applied_of_kind(OptKind::NoPrefetch), 1);
        assert_eq!(r.applied_of_kind(OptKind::ExclHint), 1);
        assert!(r.summary().contains("2 deployments"));
        assert!(r.summary().contains("1 reverts"));
    }

    /// Reports serialized before `stale_deltas`/`guest_faults` existed must
    /// still deserialize (the fields default to 0).
    #[test]
    fn old_reports_without_new_fields_still_load() {
        let mut old = serde::Serialize::to_value(&CobraReport {
            samples_forwarded: 7,
            ..CobraReport::default()
        });
        if let serde::Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| {
                k != "stale_deltas"
                    && k != "guest_faults"
                    && !k.starts_with("warm_")
                    && !k.starts_with("store_")
                    && k != "undecodable_loops"
                    && k != "verify_rejects"
                    && !k.starts_with("fleet_")
                    && k != "revert_failures"
                    && k != "deploy_failures"
                    && k != "candidates_trialed"
                    && k != "tournaments_promoted"
                    && !k.starts_with("osr_")
                    && k != "ticks_to_all_optimized"
            });
        } else {
            panic!("report serializes to an object");
        }
        let r: CobraReport = serde::Deserialize::from_value(&old).expect("tolerant deserialize");
        assert_eq!(r.samples_forwarded, 7);
        assert_eq!(r.stale_deltas, 0);
        assert_eq!(r.guest_faults, 0);
        assert!(!r.warm_started);
        assert_eq!(r.warm_hits, 0);
        assert_eq!(r.store_skipped_records, 0);
        assert_eq!(r.fleet_uploads, 0);
        assert_eq!(r.fleet_seeds, 0);
        assert_eq!(r.fleet_errors, 0);
        assert_eq!(r.osr_migrations, 0);
        assert_eq!(r.osr_reverse_migrations, 0);
        assert_eq!(r.osr_rejects, 0);
        assert_eq!(r.ticks_to_all_optimized, 0);
    }

    /// A report as written before the block-dispatch engine was removed
    /// (its `block_*` counters included) still loads and summarizes.
    #[test]
    fn reports_with_block_counters_still_load() {
        // The mg NoPrefetch arm of `cobra-repro fig5 --machine smp4 --json`.
        let json = r#"{"samples_forwarded":7364,"samples_merged":7364,"ticks":139,"forks":114,"monitors_spawned":4,"phase_changes":19,"applied":[{"plan_id":0,"kind":"NoPrefetch","loop_head":801,"description":"noprefetch on loop [801,807] (8 lfetch sites; coherent ratio 0.500, L3/kinst 0.14)","tick":24,"words_patched":7,"trace_entry":813,"candidate":null},{"plan_id":1,"kind":"NoPrefetch","loop_head":117,"description":"noprefetch on loop [117,123] (8 lfetch sites; coherent ratio 0.517, L3/kinst 0.47)","tick":29,"words_patched":7,"trace_entry":822,"candidate":null}],"reverted":[],"overhead_cycles":73128,"telemetry_records":1778,"telemetry_dropped":0,"stale_deltas":0,"guest_faults":0,"warm_started":false,"warm_seeded_decisions":0,"warm_seeded_blacklist":0,"warm_hits":0,"warm_mismatches":0,"undecodable_loops":0,"verify_rejects":0,"store_skipped_records":0,"store_errors":0,"store_saved_records":0,"revert_failures":0,"deploy_failures":0,"candidates_trialed":0,"tournaments_promoted":0,"block_builds":102,"block_invalidations":4,"block_fallback_cycles":1655091,"block_fallback_mem_boundary":1644231,"block_fallback_sampling":10860,"block_fallback_no_running":0,"block_fallback_other":0,"block_horizon_stretches":173,"block_horizon_cycles":1899,"fleet_uploads":0,"fleet_seeds":0,"fleet_errors":0,"osr_migrations":0,"osr_reverse_migrations":0,"osr_rejects":0,"ticks_to_all_optimized":0}"#;
        let r: CobraReport = serde_json::from_str(json).expect("legacy report loads");
        assert_eq!(r.samples_forwarded, 7364);
        assert_eq!(r.ticks, 139);
        assert_eq!(r.applied_of_kind(OptKind::NoPrefetch), 2);
        assert_eq!(r.overhead_cycles, 73_128);
        assert!(r.summary().contains("2 deployments"), "{}", r.summary());
        let back = serde_json::to_string(&r).expect("report serializes");
        assert!(!back.contains("block_"), "{back}");
    }
}
