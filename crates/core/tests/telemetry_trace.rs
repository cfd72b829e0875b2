//! Golden round-trip for the telemetry trace format: every event variant
//! written through the JSONL sink must parse back bit-identical via
//! `read_jsonl`, and the summary must account for every record. The trace
//! fold must reproduce the in-process report of a real run.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::PrefetchPolicy;
use cobra_machine::{Machine, MachineConfig};
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{
    read_jsonl, Cobra, CobraReport, CpuCounterSnapshot, OptKind, SeedOutcome, Strategy,
    TelemetryEvent, TelemetryHub, TelemetryLog, TelemetrySink, TraceSummary,
};

/// A `Write` target the test can read back after the sink is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Number of `TelemetryEvent` variants. [`category_of`] matches them
/// exhaustively, so adding a variant stops this file compiling until both
/// it and [`one_of_each`] cover the new one.
const VARIANTS: usize = 26;

fn category_of(e: &TelemetryEvent) -> &'static str {
    use TelemetryEvent as E;
    match e {
        E::Quantum { .. }
        | E::KernelDrain { .. }
        | E::UsbLevel { .. }
        | E::LoopClassified { .. }
        | E::StaleDelta { .. }
        | E::PhaseChange { .. }
        | E::Deploy { .. }
        | E::CpiTrial { .. }
        | E::Revert { .. }
        | E::Blacklist { .. }
        | E::RevertFailed { .. }
        | E::DeployFailed { .. }
        | E::CandidateTrial { .. }
        | E::TournamentOutcome { .. }
        | E::UndecodableLoop { .. }
        | E::VerifyReject { .. }
        | E::WarmStart { .. }
        | E::StoreError { .. }
        | E::StoreSave { .. }
        | E::FleetSeed { .. }
        | E::FleetUpload { .. }
        | E::FleetError { .. }
        | E::OsrMigrate { .. }
        | E::OsrRevert { .. }
        | E::OsrRejected { .. }
        | E::Detach { .. } => e.category(),
    }
}

/// One instance of every `TelemetryEvent` variant, with non-default
/// payloads so field transposition can't go unnoticed.
fn one_of_each() -> Vec<TelemetryEvent> {
    vec![
        TelemetryEvent::Quantum {
            tick: 1,
            cycle: 20_000,
            samples_forwarded: 17,
            cpus: vec![
                CpuCounterSnapshot {
                    cpu: 0,
                    inst_retired: 9_000,
                    l2_miss: 40,
                    l3_miss: 12,
                    bus_memory: 11,
                    coherent: 3,
                },
                CpuCounterSnapshot {
                    cpu: 1,
                    inst_retired: 8_500,
                    l2_miss: 38,
                    l3_miss: 10,
                    bus_memory: 9,
                    coherent: 2,
                },
            ],
        },
        TelemetryEvent::KernelDrain {
            tick: 1,
            cycle: 20_000,
            cpu: 2,
            samples: 5,
            dropped_total: 1,
        },
        TelemetryEvent::UsbLevel {
            tick: 1,
            cpu: 3,
            occupancy: 6,
            capacity: 8192,
            dropped_total: 0,
        },
        TelemetryEvent::LoopClassified {
            tick: 2,
            cycle: 40_000,
            loop_head: 64,
            back_edge: 96,
            prefetch_effective: false,
            decision: Some(OptKind::NoPrefetch),
            seed: Some(SeedOutcome::Hit),
        },
        TelemetryEvent::StaleDelta {
            tick: 2,
            cpu: 1,
            delta_tick: 1,
            samples: 2,
        },
        TelemetryEvent::PhaseChange {
            tick: 3,
            cycle: 60_000,
            phases: 2,
        },
        TelemetryEvent::Deploy {
            tick: 3,
            cycle: 60_000,
            plan_id: 1,
            kind: OptKind::NoPrefetch,
            loop_head: 64,
            words_patched: 4,
            trace_entry: Some(512),
            description: "noprefetch [nop-all] on loop [64,96]".to_string(),
            candidate: Some("nop-all".to_string()),
        },
        TelemetryEvent::CpiTrial {
            tick: 7,
            cycle: 140_000,
            plan_id: 1,
            post_ticks: 4,
            baseline_cpi: 1.5,
            post_cpi: 1.75,
            regressed: true,
        },
        TelemetryEvent::Revert {
            tick: 7,
            cycle: 140_000,
            plan_id: 1,
            reason: "CPI regressed 1.50 -> 1.75".to_string(),
        },
        TelemetryEvent::Blacklist {
            tick: 7,
            cycle: 140_000,
            loop_head: 64,
        },
        TelemetryEvent::RevertFailed {
            tick: 8,
            cycle: 160_000,
            plan_id: 2,
            loop_head: 200,
            addr: 9_999,
            words_restored: 1,
            detail: "address out of range".to_string(),
            reason: "trial complete".to_string(),
            words_total: 3,
        },
        TelemetryEvent::DeployFailed {
            tick: 8,
            cycle: 160_000,
            plan_id: 3,
            loop_head: 300,
            detail: "patching 9999: address out of range".to_string(),
        },
        TelemetryEvent::CandidateTrial {
            tick: 9,
            cycle: 180_000,
            loop_head: 64,
            candidate: "excl-all".to_string(),
            plan_id: 4,
            trial_ticks: 3,
            baseline_cpi: 1.25,
            cpi: 1.125,
        },
        TelemetryEvent::TournamentOutcome {
            tick: 10,
            cycle: 200_000,
            loop_head: 64,
            candidates: 3,
            winner: Some("excl-all".to_string()),
            winner_cpi: Some(1.125),
            promoted: true,
        },
        TelemetryEvent::UndecodableLoop {
            tick: 10,
            cycle: 200_000,
            loop_head: 400,
        },
        TelemetryEvent::VerifyReject {
            tick: 10,
            cycle: 200_000,
            loop_head: 500,
            reason: "write outside loop".to_string(),
        },
        TelemetryEvent::WarmStart {
            tick: 0,
            cycle: 0,
            seeded_decisions: 4,
            seeded_blacklist: 1,
            skipped_records: 2,
        },
        TelemetryEvent::StoreError {
            tick: 0,
            cycle: 0,
            detail: "no valid header record".to_string(),
            skipped_records: 3,
        },
        TelemetryEvent::StoreSave {
            tick: 11,
            cycle: 220_000,
            records: 9,
            path: "store/abc.jsonl".to_string(),
        },
        TelemetryEvent::FleetSeed {
            tick: 0,
            cycle: 0,
            seeded_decisions: 5,
            seeded_winners: 2,
            seeded_blacklist: 6,
            runs: 7,
            skipped_records: 4,
        },
        TelemetryEvent::FleetUpload {
            tick: 11,
            cycle: 220_000,
            records: 9,
            runs_total: 8,
        },
        TelemetryEvent::FleetError {
            tick: 11,
            cycle: 220_000,
            stage: "upload".to_string(),
            detail: "connection refused".to_string(),
        },
        TelemetryEvent::OsrMigrate {
            tick: 4,
            cycle: 80_000,
            plan_id: 1,
            migrations: 3,
            ticks_since_deploy: 1,
        },
        TelemetryEvent::OsrRevert {
            tick: 8,
            cycle: 160_000,
            plan_id: 1,
            migrations: 2,
            ticks_since_revert: 5,
        },
        TelemetryEvent::OsrRejected {
            tick: 3,
            cycle: 60_000,
            plan_id: 5,
            loop_head: 600,
            reason: "map not total".to_string(),
        },
        TelemetryEvent::Detach {
            tick: 12,
            cycle: 240_000,
            records_dropped: 0,
            forks: 2,
            monitors_spawned: 4,
            guest_faults: 1,
            overhead_cycles: 777,
        },
    ]
}

#[test]
fn golden_jsonl_round_trip_covers_every_event() {
    let buf = SharedBuf::default();
    let sink = TelemetrySink::jsonl(Box::new(buf.clone()));
    let hub = TelemetryHub::new(sink, 64);
    let emitter = hub.emitter();
    let events = one_of_each();
    for e in &events {
        assert!(emitter.emit(e.clone()), "ring must not be full");
    }
    hub.finish();
    let report = emitter.report();
    assert_eq!(report.telemetry_records, events.len() as u64);
    assert_eq!(report.telemetry_dropped, 0);

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("JSONL is utf-8");
    assert_eq!(text.lines().count(), events.len(), "one line per record");

    let records = read_jsonl(text.as_bytes()).expect("trace must parse back");
    assert_eq!(records.len(), events.len());
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "single-thread emission keeps seq order");
        assert_eq!(rec.event, events[i], "round-trip must be lossless");
    }

    let summary = TraceSummary::from_records(&records);
    assert_eq!(summary.total_records, events.len() as u64);
    let mut variants: Vec<&str> = events.iter().map(category_of).collect();
    variants.sort_unstable();
    variants.dedup();
    assert_eq!(
        variants.len(),
        VARIANTS,
        "one_of_each must hold every variant"
    );
    assert_eq!(
        summary.per_category.len(),
        VARIANTS,
        "every variant has its own category"
    );

    // The new fields reach the fold.
    let r = &summary.report;
    assert_eq!((r.ticks, r.samples_forwarded), (1, 17));
    assert_eq!((r.samples_merged, r.stale_deltas), (4, 1));
    assert_eq!((r.warm_hits, r.warm_mismatches), (1, 0));
    assert_eq!(r.applied.len(), 1);
    assert_eq!(
        r.applied[0].description,
        "noprefetch [nop-all] on loop [64,96]"
    );
    assert_eq!(r.applied[0].candidate.as_deref(), Some("nop-all"));
    assert_eq!(r.reverted.len(), 2);
    assert_eq!(
        r.reverted[1].reason,
        "trial complete [revert failed at 9999 after 1/3 words: address out of range]"
    );
    assert_eq!((r.revert_failures, r.deploy_failures), (1, 1));
    assert_eq!((r.candidates_trialed, r.tournaments_promoted), (1, 1));
    assert_eq!((r.undecodable_loops, r.verify_rejects), (1, 1));
    assert!(r.warm_started);
    assert_eq!((r.warm_seeded_decisions, r.warm_seeded_blacklist), (9, 7));
    assert_eq!(r.store_skipped_records, 2 + 3 + 4);
    assert_eq!((r.store_errors, r.store_saved_records), (1, 9));
    assert_eq!((r.fleet_seeds, r.fleet_uploads, r.fleet_errors), (1, 1, 1));
    assert_eq!(
        (r.osr_migrations, r.osr_reverse_migrations, r.osr_rejects),
        (3, 2, 1)
    );
    assert_eq!(r.ticks_to_all_optimized, 6);
    assert_eq!((r.forks, r.monitors_spawned), (2, 4));
    assert_eq!((r.guest_faults, r.overhead_cycles), (1, 777));
    assert_eq!(r.phase_changes, 1);
    assert_eq!(
        (r.telemetry_records, r.telemetry_dropped),
        (VARIANTS as u64, 0)
    );
}

/// Lines written before the report became the fold of the events (no
/// `description`/`candidate` on `Deploy`, no `seed` on `LoopClassified`)
/// still load, with the new fields at their defaults.
#[test]
fn pre_fold_lines_still_load() {
    // Recorded by `cobra-repro fig5 --machine smp4 --trace-out` before the
    // fields were added.
    let text = concat!(
        r#"{"seq":171,"event":{"LoopClassified":{"tick":18,"cycle":122581,"loop_head":72,"back_edge":78,"prefetch_effective":false,"decision":"NoPrefetch"}}}"#,
        "\n",
        r#"{"seq":172,"event":{"Deploy":{"tick":18,"cycle":122581,"plan_id":0,"kind":"NoPrefetch","loop_head":72,"words_patched":7,"trace_entry":624}}}"#,
        "\n",
    );
    let records = read_jsonl(text.as_bytes()).expect("legacy lines parse");
    assert_eq!(
        records[1].event,
        TelemetryEvent::Deploy {
            tick: 18,
            cycle: 122_581,
            plan_id: 0,
            kind: OptKind::NoPrefetch,
            loop_head: 72,
            words_patched: 7,
            trace_entry: Some(624),
            description: String::new(),
            candidate: None,
        }
    );
    let summary = TraceSummary::from_records(&records);
    assert_eq!(summary.report.applied.len(), 1);
    assert_eq!(summary.report.warm_hits + summary.report.warm_mismatches, 0);
    assert!(
        format!("{summary}").contains("tick    18: plan 0 noprefetch @ loop 72"),
        "{summary}"
    );
}

#[test]
fn read_jsonl_reports_the_failing_line() {
    let err = read_jsonl(&b"\nnot json\n"[..]).unwrap_err();
    assert!(
        err.starts_with("line 2:"),
        "blank lines skip, bad line named: {err}"
    );
}

fn tmp_store() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-tracefold-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One cg run on smp4 under the adaptive tournament with OSR, persisting to
/// `store`; returns the detached report and the run's telemetry log.
fn traced_cg_run(store: &std::path::Path) -> (CobraReport, Arc<Mutex<TelemetryLog>>) {
    let cfg = MachineConfig::smp4();
    let wl = npb::build(Benchmark::Cg, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let mut m = Machine::new(cfg, wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (sink, log) = TelemetrySink::memory();
    let mut cobra = Cobra::builder()
        .strategy(Strategy::Adaptive)
        .candidates(true)
        .osr(true)
        .telemetry(sink)
        .store(store)
        .attach(&mut m);
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem).expect("verification under COBRA");
    (report, log)
}

/// `CobraReport == fold(trace)`: folding a run's own trace reproduces its
/// report field for field whenever the ring dropped nothing — cold, and
/// warm-started from the cold run's store.
#[test]
fn trace_fold_equals_the_runs_report() {
    let store = tmp_store();
    let cold = traced_cg_run(&store);
    let warm = traced_cg_run(&store);
    for (name, (report, log)) in [("cold", &cold), ("warm", &warm)] {
        let log = log.lock().unwrap();
        let summary = TraceSummary::from_records(log.records());
        assert_eq!(summary.report.telemetry_dropped, 0, "{name}: ring dropped");
        assert_eq!(
            serde_json::to_string(&summary.report).unwrap(),
            serde_json::to_string(report).unwrap(),
            "{name}: fold of the trace differs from the report"
        );
    }
    // Every layer the fold covers did real work.
    let (cold, warm) = (&cold.0, &warm.0);
    assert!(cold.candidates_trialed > 0, "{}", cold.summary());
    assert!(cold.osr_migrations > 0, "{}", cold.summary());
    assert!(cold.store_saved_records > 0, "{}", cold.summary());
    assert!(
        warm.warm_started && warm.warm_hits > 0,
        "{}",
        warm.summary()
    );
    assert!(warm.warm_seeded_decisions > 0, "{}", warm.summary());
    assert!(warm.osr_migrations > 0 && warm.phase_changes > 0);
    assert!(cold.forks > 0 && cold.overhead_cycles > 0);
    let _ = std::fs::remove_dir_all(&store);
}
