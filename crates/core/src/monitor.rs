//! The helper threads of Figure 4: per-working-thread **monitoring threads**
//! and the single **optimization thread**, as real host threads connected by
//! channels.
//!
//! §3: "two types of supporting threads are invoked for a multi-threaded
//! program … an optimization thread that orchestrates profile collection and
//! runtime optimizations … [and] a group of monitoring threads … a
//! monitoring thread is created when a working thread is forked." And §3.2:
//! "there is only one optimization thread … this design choice simplif[ies]
//! its implementation, and enables centralized control over multiple
//! monitoring threads."
//!
//! The handshake is synchronous per simulation quantum so runs are
//! deterministic: the framework forwards each CPU's kernel-buffer samples to
//! its monitoring thread and posts a tick; every monitoring thread reduces
//! its batch into a [`ProfileDelta`] and acknowledges; the optimization
//! thread merges all deltas, runs phase detection and the optimizer, and
//! replies with the plans to deploy.

use crossbeam::channel::{Receiver, Sender};

use cobra_perfmon::SampleRecord;

use crate::optimizer::{Optimizer, PlanAction};
use crate::phase::PhaseDetector;
use crate::profile::{CounterWindow, SystemProfile, ThreadProfiler};
use crate::telemetry::{TelemetryEmitter, TelemetryEvent};
use crate::usb::UserSamplingBuffer;

/// Messages to a monitoring thread.
#[derive(Debug)]
pub enum ToMonitor {
    /// Samples drained from this CPU's kernel buffer.
    Samples(Vec<SampleRecord>),
    /// End of quantum: reduce and acknowledge.
    Tick(u64),
    Shutdown,
}

/// Messages to the optimization thread.
#[derive(Debug)]
pub enum ToOpt {
    /// A monitoring thread's reduction for one tick. The tag pins the delta
    /// to the tick whose samples it reduces: a delta that arrives after its
    /// tick has already been folded is dropped (and counted) rather than
    /// silently polluting a later tick's rolling window.
    Delta {
        tick: u64,
        delta: crate::profile::ProfileDelta,
    },
    /// A monitoring thread finished the tick.
    TickAck {
        cpu: u32,
        tick: u64,
    },
    /// The framework announces a tick, the machine cycle it closed at, and
    /// how many acknowledgements to wait for.
    BeginTick {
        tick: u64,
        cycle: u64,
        expected: usize,
    },
    /// A guest-side patch write for this loop failed (apply rollback or a
    /// stopped revert): the optimizer must blacklist it and abandon any
    /// deployment or tournament touching it.
    LoopPoisoned {
        loop_head: cobra_isa::CodeAddr,
    },
    Shutdown,
}

/// The optimization thread's reply for one tick: the plans to deploy or
/// revert. Its bookkeeping reaches the report as telemetry events.
#[derive(Debug, Default)]
pub struct TickReply {
    pub actions: Vec<PlanAction>,
}

/// Everything the optimization thread hands back when it exits — the
/// material a `cobra-store` snapshot is built from.
#[derive(Debug)]
pub struct OptFinal {
    /// Final per-loop decisions (deployed + reverted), sorted by loop head.
    pub decisions: Vec<crate::optimizer::DecisionExport>,
    /// Blacklisted loop heads, sorted.
    pub blacklist: Vec<cobra_isa::CodeAddr>,
    /// Profile accumulated over the *whole* run (unlike the rolling
    /// decision profile, nothing ages out of this one).
    pub cumulative: SystemProfile,
}

/// Body of one monitoring thread (runs on a real host thread). Each tick's
/// USB occupancy reaches the report as a `UsbLevel` event.
pub fn monitoring_thread(
    cpu: u32,
    sampling_period: u64,
    usb_capacity: usize,
    rx: Receiver<ToMonitor>,
    tx: Sender<ToOpt>,
    telemetry: TelemetryEmitter,
) {
    let mut usb = UserSamplingBuffer::new(usb_capacity);
    let mut profiler = ThreadProfiler::new(cpu, sampling_period);
    while let Ok(msg) = rx.recv() {
        match msg {
            ToMonitor::Samples(batch) => {
                for rec in batch {
                    usb.store(rec);
                }
            }
            ToMonitor::Tick(tick) => {
                // The whole buffer becomes this tick's delta, so the
                // occupancy is the sample count the optimizer merges.
                telemetry.emit(TelemetryEvent::UsbLevel {
                    tick,
                    cpu,
                    occupancy: usb.len(),
                    capacity: usb_capacity,
                    dropped_total: usb.dropped(),
                });
                let batch = usb.drain();
                let delta = profiler.reduce(&batch);
                // Delta first, then the ack: per-sender channel ordering
                // guarantees the optimization thread sees them in order.
                if tx.send(ToOpt::Delta { tick, delta }).is_err() {
                    break;
                }
                if tx.send(ToOpt::TickAck { cpu, tick }).is_err() {
                    break;
                }
            }
            ToMonitor::Shutdown => break,
        }
    }
}

/// Body of the optimization thread (runs on a real host thread). Owns the
/// system-wide profile, the phase detector, and the optimizer (with its
/// synchronized image copy).
///
/// The decision profile is **rolling**: it is rebuilt each tick from the
/// last `OptimizerConfig::rolling_ticks` ticks of deltas, so cold-start
/// behaviour ages out and decisions reflect the program's *current* phase
/// (the continuous part of Continuous Binary Re-Adaptation).
pub fn optimization_thread(
    mut optimizer: Optimizer,
    bands: crate::profile::LatencyBands,
    mut phases: PhaseDetector,
    rx: Receiver<ToOpt>,
    reply_tx: Sender<TickReply>,
    telemetry: TelemetryEmitter,
) -> OptFinal {
    let rolling_ticks = optimizer.config().rolling_ticks.max(1);
    let mut cumulative = SystemProfile::new(bands);
    let finish = |optimizer: &Optimizer, cumulative: SystemProfile| {
        let (decisions, blacklist) = optimizer.export_state();
        OptFinal {
            decisions,
            blacklist,
            cumulative,
        }
    };
    let mut pending_acks: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut expected: Option<(u64, u64, usize)> = None;
    // Deltas keyed by the tick they belong to, so a late delta can never be
    // folded into the wrong tick's rolling window.
    let mut pending_deltas: std::collections::HashMap<u64, Vec<crate::profile::ProfileDelta>> =
        std::collections::HashMap::new();
    let mut last_folded: Option<u64> = None;
    let mut recent: std::collections::VecDeque<Vec<crate::profile::ProfileDelta>> =
        std::collections::VecDeque::new();
    let drop_stale = |delta_tick: u64, delta: &crate::profile::ProfileDelta, at_tick: u64| {
        telemetry.emit(TelemetryEvent::StaleDelta {
            tick: at_tick,
            cpu: delta.cpu,
            delta_tick,
            samples: delta.samples,
        });
    };

    loop {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => return finish(&optimizer, cumulative),
        };
        match msg {
            ToOpt::Delta { tick, delta } => {
                if last_folded.is_some_and(|t| tick <= t) {
                    // Its tick is already folded: dropping is the only move
                    // that keeps the rolling window honest.
                    drop_stale(tick, &delta, last_folded.unwrap_or(0));
                } else {
                    pending_deltas.entry(tick).or_default().push(delta);
                }
            }
            ToOpt::TickAck { cpu: _, tick } => {
                *pending_acks.entry(tick).or_insert(0) += 1;
            }
            ToOpt::BeginTick {
                tick,
                cycle,
                expected: n,
            } => {
                expected = Some((tick, cycle, n));
            }
            ToOpt::LoopPoisoned { loop_head } => {
                optimizer.poison(loop_head);
            }
            ToOpt::Shutdown => return finish(&optimizer, cumulative),
        }

        if let Some((tick, cycle, n)) = expected {
            let acked = pending_acks.get(&tick).copied().unwrap_or(0);
            if acked >= n {
                pending_acks.remove(&tick);
                expected = None;

                // Fold exactly this tick's deltas; purge anything older
                // (it can only exist if a tick was skipped — still stale).
                let current_tick = pending_deltas.remove(&tick).unwrap_or_default();
                let old_keys: Vec<u64> = pending_deltas
                    .keys()
                    .copied()
                    .filter(|&k| k < tick)
                    .collect();
                for k in old_keys {
                    for d in pending_deltas.remove(&k).unwrap_or_default() {
                        drop_stale(k, &d, tick);
                    }
                }
                last_folded = Some(tick);
                for d in &current_tick {
                    cumulative.absorb(d);
                }

                // Phase detection on this tick's merged window.
                let mut tick_window = CounterWindow::default();
                for d in &current_tick {
                    tick_window.merge(&d.window);
                }
                recent.push_back(current_tick);
                while recent.len() > rolling_ticks {
                    recent.pop_front();
                }
                let phase_changed = phases.observe(&tick_window);
                if phase_changed {
                    telemetry.emit(TelemetryEvent::PhaseChange {
                        tick,
                        cycle,
                        phases: phases.phases(),
                    });
                    // Old-phase history is no longer representative. The
                    // optimizer keeps its deployed and blacklisted loops
                    // (re-deploying a patched loop would stack rewrites);
                    // loops that only now became hot meet fresh data.
                    let newest = recent.pop_back();
                    recent.clear();
                    if let Some(d) = newest {
                        recent.push_back(d);
                    }
                }

                // Rebuild the rolling decision profile.
                let mut profile = SystemProfile::new(bands);
                for tick_deltas in &recent {
                    for d in tick_deltas {
                        profile.absorb(d);
                    }
                }

                optimizer.begin_tick(tick, cycle);
                optimizer.observe_tick_window(&tick_window);
                let reply = TickReply {
                    actions: optimizer.consider(&profile),
                };
                if reply_tx.send(reply).is_err() {
                    return finish(&optimizer, cumulative);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerConfig;
    use crate::phase::PhaseConfig;
    use crate::profile::LatencyBands;
    use cobra_machine::BtbEntry;
    use cobra_perfmon::PmcSelection;
    use crossbeam::channel::unbounded;

    fn sample(cpu: u32, idx: u64) -> SampleRecord {
        SampleRecord {
            index: idx,
            pc: 10,
            pid: 1,
            tid: cpu,
            cpu,
            cycle: idx * 100,
            counters: [idx * 10, idx, idx * 2, idx],
            events: PmcSelection::coherence_default().events,
            btb: vec![BtbEntry {
                src: 50,
                target: 30,
            }],
            dear: None,
        }
    }

    #[test]
    fn monitor_reduces_batches_and_acks_ticks() {
        let (to_mon_tx, to_mon_rx) = unbounded();
        let (to_opt_tx, to_opt_rx) = unbounded();
        let em = TelemetryEmitter::default();
        let telemetry = em.clone();
        let handle = std::thread::spawn(move || {
            monitoring_thread(2, 1000, 64, to_mon_rx, to_opt_tx, telemetry)
        });
        to_mon_tx
            .send(ToMonitor::Samples(vec![sample(2, 1), sample(2, 2)]))
            .unwrap();
        to_mon_tx.send(ToMonitor::Tick(0)).unwrap();

        match to_opt_rx.recv().unwrap() {
            ToOpt::Delta { tick, delta } => {
                assert_eq!(tick, 0, "delta carries the tick it reduces");
                assert_eq!(delta.cpu, 2);
                assert_eq!(delta.samples, 2);
                assert_eq!(delta.branch_pairs.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        match to_opt_rx.recv().unwrap() {
            ToOpt::TickAck { cpu, tick } => {
                assert_eq!((cpu, tick), (2, 0));
            }
            other => panic!("{other:?}"),
        }
        to_mon_tx.send(ToMonitor::Shutdown).unwrap();
        handle.join().unwrap();
        // The USB occupancy it reported is the delta's sample count.
        assert_eq!(em.report().samples_merged, 2);
    }

    #[test]
    fn opt_thread_replies_once_per_fully_acked_tick() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.nop(cobra_isa::Unit::I);
            a.finish()
        };
        let optimizer = Optimizer::new(OptimizerConfig::default(), image);
        let bands = LatencyBands { coherent_min: 165 };
        let phases = PhaseDetector::new(PhaseConfig::default());
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        let handle = std::thread::spawn(move || {
            optimization_thread(
                optimizer,
                bands,
                phases,
                rx,
                reply_tx,
                TelemetryEmitter::default(),
            )
        });

        // Two monitors; acks can arrive before BeginTick.
        tx.send(ToOpt::Delta {
            tick: 0,
            delta: crate::profile::ProfileDelta {
                cpu: 0,
                samples: 1,
                ..Default::default()
            },
        })
        .unwrap();
        tx.send(ToOpt::TickAck { cpu: 0, tick: 0 }).unwrap();
        tx.send(ToOpt::TickAck { cpu: 1, tick: 0 }).unwrap();
        tx.send(ToOpt::BeginTick {
            tick: 0,
            cycle: 20_000,
            expected: 2,
        })
        .unwrap();
        let reply = reply_rx.recv().unwrap();
        assert!(reply.actions.is_empty(), "quiet profile produces no plans");

        // Second tick with only one monitor.
        tx.send(ToOpt::BeginTick {
            tick: 1,
            cycle: 40_000,
            expected: 1,
        })
        .unwrap();
        tx.send(ToOpt::TickAck { cpu: 0, tick: 1 }).unwrap();
        let _ = reply_rx.recv().unwrap();

        tx.send(ToOpt::Shutdown).unwrap();
        assert_eq!(
            handle.join().unwrap().cumulative.samples,
            1,
            "the delta acked before BeginTick is merged in its tick"
        );
    }

    #[test]
    fn late_delta_is_dropped_not_folded_into_later_tick() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.nop(cobra_isa::Unit::I);
            a.finish()
        };
        let optimizer = Optimizer::new(OptimizerConfig::default(), image);
        let bands = LatencyBands { coherent_min: 165 };
        let phases = PhaseDetector::new(PhaseConfig::default());
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        let em = TelemetryEmitter::default();
        let telemetry = em.clone();
        let handle = std::thread::spawn(move || {
            optimization_thread(optimizer, bands, phases, rx, reply_tx, telemetry)
        });

        // Tick 0 completes without its delta (e.g. a slow monitor).
        tx.send(ToOpt::BeginTick {
            tick: 0,
            cycle: 20_000,
            expected: 1,
        })
        .unwrap();
        tx.send(ToOpt::TickAck { cpu: 0, tick: 0 }).unwrap();
        reply_rx.recv().unwrap();
        assert_eq!(em.report().samples_merged, 0);
        assert_eq!(em.report().stale_deltas, 0);

        // The straggler arrives after its tick was folded; its monitor
        // reported the 7 samples when it reduced them.
        em.emit(TelemetryEvent::UsbLevel {
            tick: 0,
            cpu: 3,
            occupancy: 7,
            capacity: 64,
            dropped_total: 0,
        });
        tx.send(ToOpt::Delta {
            tick: 0,
            delta: crate::profile::ProfileDelta {
                cpu: 3,
                samples: 7,
                ..Default::default()
            },
        })
        .unwrap();

        // Tick 1 must not absorb the stale delta.
        tx.send(ToOpt::BeginTick {
            tick: 1,
            cycle: 40_000,
            expected: 1,
        })
        .unwrap();
        tx.send(ToOpt::TickAck { cpu: 0, tick: 1 }).unwrap();
        reply_rx.recv().unwrap();
        let report = em.report();
        assert_eq!(
            report.samples_merged, 0,
            "stale delta's samples must never be merged"
        );
        assert_eq!(report.stale_deltas, 1, "and the drop is counted");

        tx.send(ToOpt::Shutdown).unwrap();
        assert_eq!(
            handle.join().unwrap().cumulative.samples,
            0,
            "the optimization thread never absorbed the stale delta"
        );
    }
}
