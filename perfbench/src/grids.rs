//! The three simulation workloads: their grids of trials, set-up, one
//! pass over a seeded trial order, and the checks on what a pass made.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cobra_harness::fig3::{self, Fig3Data, Variant};
use cobra_harness::npbsuite::{self, Arm, ArmResult, BenchResult, SuiteData};
use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy, Workload};
use cobra_rt::{CobraReport, Strategy};
use serde::{Deserialize, Serialize};

use crate::calib::Calibrator;
use crate::sim::{run_trial, Attach, Counters, Layers, Mach, Trial};
use crate::stats::{median, Tally};

/// A simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Figs. 5–7: 6 coherent NPB × 4 arms × {smp4, altix8}.
    NpbGrid,
    /// ft, mg, cg on smp4: prefetch baseline, adaptive tournament cold
    /// run, and warm run from the cold run's store.
    OsrTournament,
    /// Fig. 3: {128K, 512K, 2M} × {1, 2, 4} threads × 3 static variants,
    /// each a warm-up run and a full run.
    DaxpyScaling,
}

impl SimKind {
    pub fn name(self) -> &'static str {
        match self {
            SimKind::NpbGrid => "npb-grid",
            SimKind::OsrTournament => "osr-tournament",
            SimKind::DaxpyScaling => "daxpy-scaling",
        }
    }
}

/// Benchmarks of the tournament workload.
const OSR_BENCHES: [Benchmark; 3] = [Benchmark::Ft, Benchmark::Mg, Benchmark::Cg];

fn arm_attach(arm: Arm) -> Attach {
    let strategy = match arm {
        Arm::Baseline => return Attach::Plain,
        Arm::NoPrefetch => Strategy::NoPrefetch,
        Arm::Excl => Strategy::ExclHint,
        Arm::Adaptive => Strategy::Adaptive,
    };
    Attach::Fig5 {
        strategy,
        store: None,
    }
}

fn variant_policy(v: Variant) -> PrefetchPolicy {
    match v {
        Variant::Prefetch => PrefetchPolicy::aggressive(),
        Variant::NoPrefetch => PrefetchPolicy::none(),
        Variant::PrefetchExcl => PrefetchPolicy::aggressive_excl(),
    }
}

/// Built programs and the grid of trials that run them.
pub struct SimSetup {
    pub programs: Vec<Box<dyn Workload>>,
    pub trials: Vec<Trial>,
    /// Whole passes a run makes at least. The tournament's trials hand
    /// off between COBRA's threads every 500 cycles, so their host time
    /// varies pass to pass far more than the other grids'; three passes
    /// give each trial a median.
    pub min_passes: usize,
    /// Host seconds spent building the programs.
    pub build_s: f64,
}

/// Build every program of `kind`'s grid (timed) and list its trials.
pub fn setup(kind: SimKind) -> SimSetup {
    let t = Instant::now();
    let mut programs: Vec<Box<dyn Workload>> = Vec::new();
    let mut trials = Vec::new();
    match kind {
        SimKind::NpbGrid => {
            for mach in [Mach::Smp4, Mach::Altix8] {
                for bench in npb::Benchmark::COHERENT {
                    let program = programs.len();
                    programs.push(npb::build(
                        bench,
                        &PrefetchPolicy::aggressive(),
                        mach.cfg().mem_bytes,
                    ));
                    for arm in Arm::ALL {
                        trials.push(Trial {
                            id: format!("npb/{}/{}/{}", mach.name(), bench.name(), arm.name()),
                            mach,
                            threads: mach.threads(),
                            program,
                            attach: arm_attach(arm),
                        });
                    }
                }
            }
        }
        SimKind::OsrTournament => {
            let mach = Mach::Smp4;
            for (bench, store) in OSR_BENCHES
                .into_iter()
                .zip(["ft-store", "mg-store", "cg-store"])
            {
                let program = programs.len();
                programs.push(npb::build(
                    bench,
                    &PrefetchPolicy::aggressive(),
                    mach.cfg().mem_bytes,
                ));
                for (phase, attach) in [
                    ("prefetch", Attach::Plain),
                    ("cold", Attach::Tournament { store }),
                    ("warm", Attach::Tournament { store }),
                ] {
                    trials.push(Trial {
                        id: format!("osr/{}/{phase}", bench.name()),
                        mach,
                        threads: mach.threads(),
                        program,
                        attach,
                    });
                }
            }
        }
        SimKind::DaxpyScaling => {
            let mach = Mach::Smp4;
            for ws in fig3::WORKING_SETS {
                for threads in fig3::THREADS {
                    for v in [
                        Variant::Prefetch,
                        Variant::NoPrefetch,
                        Variant::PrefetchExcl,
                    ] {
                        for reps in [fig3::WARMUP_REPS, fig3::WARMUP_REPS + fig3::DEFAULT_REPS] {
                            let program = programs.len();
                            programs.push(Box::new(Daxpy::build(
                                DaxpyParams::new(ws, reps),
                                &variant_policy(v),
                                mach.cfg().mem_bytes,
                            )));
                            trials.push(Trial {
                                id: daxpy_id(ws, threads, v, reps),
                                mach,
                                threads,
                                program,
                                attach: Attach::Plain,
                            });
                        }
                    }
                }
            }
        }
    }
    SimSetup {
        programs,
        trials,
        min_passes: if kind == SimKind::OsrTournament { 3 } else { 1 },
        build_s: t.elapsed().as_secs_f64(),
    }
}

fn daxpy_id(ws: usize, threads: usize, v: Variant, reps: usize) -> String {
    format!("daxpy/{}K/{threads}t/{}/r{reps}", ws / 1024, v.name())
}

/// SplitMix64: a small, seedable generator for input permutations.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The seeded trial order: a permutation of the grid in which each warm
/// tournament run still follows the cold run that writes its store.
pub fn order(trials: &[Trial], seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..trials.len()).collect();
    Rng::new(seed).shuffle(&mut idx);
    let mut cold_seen = Vec::new();
    for i in 0..idx.len() {
        let Attach::Tournament { store } = trials[idx[i]].attach else {
            continue;
        };
        if trials[idx[i]].id.ends_with("/warm") && !cold_seen.contains(&store) {
            let cold = (i + 1..idx.len())
                .find(|&j| {
                    trials[idx[j]].attach == (Attach::Tournament { store })
                        && trials[idx[j]].id.ends_with("/cold")
                })
                .expect("every warm run has a cold run");
            idx.swap(i, cold);
        }
        cold_seen.push(store);
    }
    idx
}

/// What one pass over the grid produced.
#[derive(Default)]
pub struct PassOut {
    /// Host seconds of each successful trial.
    pub times: BTreeMap<String, f64>,
    pub tally: Tally,
    pub errors: Vec<String>,
    pub layers: Layers,
    pub counters: BTreeMap<String, Counters>,
    pub reports: BTreeMap<String, CobraReport>,
}

impl PassOut {
    fn fail(&mut self, e: String) {
        self.tally.record(&Err::<(), _>(()));
        self.errors.push(e);
    }
}

/// Counters recorded at the commit that defined the benchmark.
#[derive(Debug, Serialize, Deserialize)]
pub struct Expected {
    pub workload: String,
    pub trials: Vec<(String, Counters)>,
    /// Deterministic end results derived from the trials.
    pub derived: Vec<(String, f64)>,
}

/// Where a workload's recorded counters live.
pub fn expected_path(kind: SimKind) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.json", kind.name()))
}

pub fn load_expected(kind: SimKind) -> Result<Expected, String> {
    let path = expected_path(kind);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run every trial once in `order`, taking a host-speed sample before
/// each. With `expected`, a trial whose counters differ from the recorded
/// ones counts as failed.
pub fn pass(
    setup: &SimSetup,
    order: &[usize],
    scratch: &Path,
    traced: bool,
    expected: Option<&Expected>,
    cal: &mut Calibrator,
) -> PassOut {
    let want: BTreeMap<&str, &Counters> = expected
        .map(|e| e.trials.iter().map(|(id, c)| (id.as_str(), c)).collect())
        .unwrap_or_default();
    let mut out = PassOut::default();
    for &i in order {
        let trial = &setup.trials[i];
        cal.sample();
        let res = run_trial(trial, &*setup.programs[trial.program], scratch, traced);
        let t = match res {
            Ok(t) => t,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        if let Some(report) = &t.report {
            let is_warm = trial.id.ends_with("/warm");
            if matches!(trial.attach, Attach::Tournament { .. }) && report.warm_started != is_warm {
                out.fail(format!(
                    "{}: warm_started = {} (expected {is_warm})",
                    trial.id, report.warm_started
                ));
                continue;
            }
        }
        if expected.is_some() && want.get(trial.id.as_str()) != Some(&&t.counters) {
            out.fail(format!(
                "{}: counters {:?} differ from the recorded {:?}",
                trial.id,
                t.counters,
                want.get(trial.id.as_str())
            ));
            continue;
        }
        out.tally.record(&Ok::<(), ()>(()));
        out.times.insert(trial.id.clone(), t.op.as_secs_f64());
        out.layers.merge(&t.layers);
        out.counters.insert(trial.id.clone(), t.counters);
        if let Some(r) = t.report {
            out.reports.insert(trial.id.clone(), r);
        }
    }
    out
}

/// Host seconds of one pass over the grid, estimated from one or more
/// passes: the sum over trials of each trial's median time.
pub fn wall_s(passes: &[PassOut]) -> f64 {
    let mut per_trial: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (id, t) in &p.times {
            per_trial.entry(id).or_default().push(*t);
        }
    }
    per_trial.values().map(|v| median(v)).sum()
}

/// The deterministic end results of a complete pass: for the tournament,
/// the mean simulated speedup of the cold and warm runs over the prefetch
/// baseline (percent) and the summed time-to-optimized ticks of the cold
/// runs. Empty for the other workloads or an incomplete pass.
pub fn derived(kind: SimKind, p: &PassOut) -> Vec<(&'static str, f64)> {
    if kind != SimKind::OsrTournament {
        return Vec::new();
    }
    let cycles = |id: String| p.counters.get(&id).map(|c| c[0] as f64);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut ticks = 0u64;
    for b in OSR_BENCHES {
        let (Some(base), Some(c), Some(w), Some(r)) = (
            cycles(format!("osr/{}/prefetch", b.name())),
            cycles(format!("osr/{}/cold", b.name())),
            cycles(format!("osr/{}/warm", b.name())),
            p.reports.get(&format!("osr/{}/cold", b.name())),
        ) else {
            return Vec::new();
        };
        cold.push(100.0 * (base / c - 1.0));
        warm.push(100.0 * (base / w - 1.0));
        ticks += r.ticks_to_all_optimized;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    vec![
        ("speedup_cold_pct", mean(&cold)),
        ("speedup_warm_pct", mean(&warm)),
        ("time_to_optimized_ticks", ticks as f64),
    ]
}

/// The paper's shape checks on a complete pass (Figs. 5–7 on both
/// machines, or Fig. 3). Each failing check is returned as text.
pub fn shape_failures(kind: SimKind, p: &PassOut) -> Vec<String> {
    let checks = match kind {
        SimKind::NpbGrid => {
            let suite = |mach: Mach| -> Option<SuiteData> {
                let results = npb::Benchmark::COHERENT
                    .iter()
                    .map(|b| {
                        let arms = Arm::ALL
                            .iter()
                            .map(|&arm| {
                                let id = format!("npb/{}/{}/{}", mach.name(), b.name(), arm.name());
                                p.counters.get(&id).map(|c| ArmResult {
                                    arm,
                                    cycles: c[0],
                                    l3_misses: c[2],
                                    bus_transactions: c[3],
                                    cobra: None,
                                })
                            })
                            .collect::<Option<Vec<_>>>()?;
                        Some(BenchResult {
                            bench: b.name().to_string(),
                            arms,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(SuiteData {
                    machine: mach.name().to_string(),
                    threads: mach.threads(),
                    results,
                })
            };
            match (suite(Mach::Smp4), suite(Mach::Altix8)) {
                (Some(smp), Some(alt)) => npbsuite::shape_checks(&smp, &alt),
                _ => return vec!["npb-grid pass incomplete".into()],
            }
        }
        SimKind::DaxpyScaling => {
            let steady = |ws, t, v| {
                let c = |reps| p.counters.get(&daxpy_id(ws, t, v, reps)).map(|c| c[0]);
                c(fig3::WARMUP_REPS + fig3::DEFAULT_REPS)?.checked_sub(c(fig3::WARMUP_REPS)?)
            };
            let mut cells = Vec::new();
            for ws in fig3::WORKING_SETS {
                let Some(base) = steady(ws, 1, Variant::Prefetch) else {
                    return vec!["daxpy-scaling pass incomplete".into()];
                };
                for threads in fig3::THREADS {
                    for variant in [
                        Variant::Prefetch,
                        Variant::NoPrefetch,
                        Variant::PrefetchExcl,
                    ] {
                        let Some(cycles) = steady(ws, threads, variant) else {
                            return vec!["daxpy-scaling pass incomplete".into()];
                        };
                        cells.push(fig3::Cell {
                            working_set: ws,
                            threads,
                            variant,
                            cycles,
                            normalized: cycles as f64 / base as f64,
                        });
                    }
                }
            }
            Fig3Data {
                cells,
                reps: fig3::DEFAULT_REPS,
            }
            .shape_checks()
        }
        // The tournament has no paper figure to keep in shape; its
        // speedups and time-to-optimized are checked against the recorded
        // values instead.
        SimKind::OsrTournament => Vec::new(),
    };
    checks
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(text, _)| format!("shape check failed: {text}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_seeded_permutations_with_cold_before_warm() {
        let s = setup(SimKind::OsrTournament);
        assert_eq!(s.trials.len(), 9);
        let a = order(&s.trials, 7);
        assert_eq!(a, order(&s.trials, 7), "same seed, same order");
        assert!(
            (0..20).any(|seed| order(&s.trials, seed) != a),
            "seed moves the order"
        );
        for seed in 0..50 {
            let o = order(&s.trials, seed);
            let mut sorted = o.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
            for b in ["ft", "mg", "cg"] {
                let pos = |phase: &str| {
                    o.iter()
                        .position(|&i| s.trials[i].id == format!("osr/{b}/{phase}"))
                        .unwrap()
                };
                assert!(
                    pos("cold") < pos("warm"),
                    "seed {seed}: {b} warm before cold"
                );
            }
        }
    }

    #[test]
    fn wall_sums_per_trial_medians() {
        let pass = |a: f64, b: f64| PassOut {
            times: [("a".to_string(), a), ("b".to_string(), b)].into(),
            ..PassOut::default()
        };
        assert_eq!(wall_s(&[pass(1.0, 2.0)]), 3.0);
        // One slow outlier per trial does not move the estimate.
        let passes = [pass(1.0, 9.0), pass(5.0, 2.0), pass(1.0, 2.0)];
        assert_eq!(wall_s(&passes), 3.0);
    }

    #[test]
    fn grids_have_the_paper_sizes() {
        assert_eq!(setup(SimKind::NpbGrid).trials.len(), 6 * 4 * 2);
        assert_eq!(setup(SimKind::DaxpyScaling).trials.len(), 3 * 3 * 3 * 2);
    }

    #[test]
    fn recorded_counters_cover_each_grid_and_pass_the_shape_checks() {
        for kind in [
            SimKind::NpbGrid,
            SimKind::OsrTournament,
            SimKind::DaxpyScaling,
        ] {
            let e = load_expected(kind).unwrap();
            let s = setup(kind);
            let ids: Vec<&str> = e.trials.iter().map(|(id, _)| id.as_str()).collect();
            let grid: Vec<&str> = s.trials.iter().map(|t| t.id.as_str()).collect();
            assert_eq!(ids, grid, "{}", kind.name());
            let p = PassOut {
                counters: e.trials.iter().cloned().collect(),
                ..PassOut::default()
            };
            assert_eq!(shape_failures(kind, &p), Vec::<String>::new());
        }
    }
}
