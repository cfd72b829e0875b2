//! Component microbenchmarks (real wall time): the substrate's hot paths.
//!
//! * ISA encode/decode throughput (the binary-rewriting data plane)
//! * cache probe/fill, coherent memory-system accesses
//! * whole-machine stepping (simulation throughput in core-cycles/s)
//! * trace selection + optimizer decision latency (COBRA's reaction time)

use cobra_bench::bench_metric;
use cobra_isa::insn::{CmpRel, Op};
use cobra_isa::{decode, encode, Assembler, Insn, LfetchHint};
use cobra_kernels::workload::Workload;
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::{AccessKind, CpuStats, Hpm, Machine, MachineConfig, MemSystem};
use cobra_omp::{OmpRuntime, Team};
use cobra_osr::OsrMap;
use cobra_rt::{
    select_loops, verify_plan, Cobra, DeployMode, LatencyBands, Optimizer, OptimizerConfig,
    PatchPlan, PlanAction, ProfileDelta, Strategy, SystemProfile, TelemetryEvent, TelemetryHub,
    TelemetrySink, TraceConfig,
};
use cobra_verify::check_osr_map;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

fn bench_isa(c: &mut Criterion) {
    let insn = Insn::pred(
        16,
        Op::Lfetch {
            base: 43,
            post_inc: 8,
            hint: LfetchHint::Nt1,
            excl: false,
        },
    );
    let word = encode(&insn);
    c.bench_function("components/isa/encode", |b| {
        b.iter(|| encode(criterion::black_box(&insn)))
    });
    c.bench_function("components/isa/decode", |b| {
        b.iter(|| decode(criterion::black_box(word)).unwrap())
    });
}

fn bench_memsys(c: &mut Criterion) {
    let cfg = MachineConfig::smp4();
    c.bench_function("components/memsys/l2_hit_load", |b| {
        let mut ms = MemSystem::new(&cfg);
        let mut stats: Vec<CpuStats> = (0..4).map(|_| CpuStats::new()).collect();
        let mut hpm: Vec<Hpm> = (0..4).map(|_| Hpm::new(cfg.dear_min_latency)).collect();
        // Warm one line.
        ms.access(
            &mut stats,
            &mut hpm,
            0,
            0,
            1,
            AccessKind::Load {
                fp: true,
                bias: false,
            },
            0x1000,
        );
        let mut now = 1000u64;
        b.iter(|| {
            now += 1;
            ms.access(
                &mut stats,
                &mut hpm,
                0,
                now,
                1,
                AccessKind::Load {
                    fp: true,
                    bias: false,
                },
                0x1000,
            )
        })
    });
    c.bench_function("components/memsys/coherent_pingpong", |b| {
        let mut ms = MemSystem::new(&cfg);
        let mut stats: Vec<CpuStats> = (0..4).map(|_| CpuStats::new()).collect();
        let mut hpm: Vec<Hpm> = (0..4).map(|_| Hpm::new(cfg.dear_min_latency)).collect();
        let mut now = 0u64;
        b.iter(|| {
            now += 500;
            ms.access(&mut stats, &mut hpm, 0, now, 1, AccessKind::Store, 0x2000);
            ms.access(
                &mut stats,
                &mut hpm,
                1,
                now + 250,
                1,
                AccessKind::Store,
                0x2000,
            )
        })
    });
}

/// 4-core arithmetic loop image: the cheapest busy workload a quantum can
/// carry (used as the simulation-throughput fixture and as the quantum
/// floor in the verify-overhead budget).
fn arith_loop_image() -> cobra_isa::CodeImage {
    let mut a = Assembler::new();
    a.movi(4, 1_000_000_000);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    a.addi(5, 5, 1);
    a.emit(Insn::new(Op::Add {
        dest: 6,
        r2: 6,
        r3: 5,
    }));
    a.br_cloop(top);
    a.hlt();
    a.finish()
}

fn bench_machine_stepping(c: &mut Criterion) {
    // Simulation throughput: 4 cores running an arithmetic loop.
    let image = arith_loop_image();
    c.bench_function("components/machine/step_4_cores_1k_cycles", |b| {
        b.iter_batched(
            || {
                let mut m = Machine::new(MachineConfig::smp4(), image.clone());
                for cpu in 0..4 {
                    m.spawn_thread(cpu, 0, &[]);
                }
                m
            },
            |mut m| {
                m.run(1000);
                m
            },
            BatchSize::SmallInput,
        )
    });

    // Stall-heavy throughput: a line-striding FP load (one 128-byte line per
    // iteration, so every load misses to memory) feeding an immediate use,
    // which parks all four cores in long all-stalled windows. This is the
    // case stall skip exists for; a plain `Machine::step` loop is
    // benchmarked alongside `Machine::run` so the speedup is visible in the
    // report. Both must simulate the exact same machine — asserted below
    // before anything is timed.
    let stall_image = {
        let mut a = Assembler::new();
        a.movi(4, 0x1000);
        a.movi(5, 100_000);
        a.mov_to_lc(5);
        let top = a.new_label();
        a.bind(top);
        a.ldfd(0, 6, 4, 128);
        a.fma_d(0, 7, 6, 1, 7); // immediate use: full load-use stall
        a.br_cloop(top);
        a.hlt();
        a.finish()
    };
    const STALL_CYCLES: u64 = 200_000;
    let run_stall_heavy = |stall_skip: bool| {
        let mut m = Machine::new(MachineConfig::smp4(), stall_image.clone());
        for cpu in 0..4 {
            m.spawn_thread(cpu, 0, &[]);
        }
        if stall_skip {
            m.run(STALL_CYCLES);
        } else {
            while !m.all_halted() && m.cycle() < STALL_CYCLES {
                m.step();
            }
        }
        m
    };
    let stepped = run_stall_heavy(false);
    let skipped = run_stall_heavy(true);
    assert_eq!(
        (stepped.cycle(), stepped.total_stats()),
        (skipped.cycle(), skipped.total_stats()),
        "stall skip must be cycle- and counter-identical to the step loop"
    );
    let mut group = c.benchmark_group("components/machine/stall_heavy_200k_cycles");
    for (variant, stall_skip) in [("per_cycle", false), ("stall_skip", true)] {
        group.bench_function(BenchmarkId::from_parameter(variant), |b| {
            b.iter(|| run_stall_heavy(criterion::black_box(stall_skip)))
        });
    }
    group.finish();
}

/// Shared fixture for the optimizer benches: a 32-loop image with
/// prefetching bodies plus a hot profile that makes every loop a candidate.
fn decision_inputs() -> (cobra_isa::CodeImage, SystemProfile) {
    let image = {
        let mut a = Assembler::new();
        for _ in 0..32 {
            let top = a.new_label();
            a.bind(top);
            a.ldfd(16, 32, 2, 8);
            a.lfetch_nt1(16, 27, 8);
            a.emit(Insn::new(Op::Cmp {
                p1: 6,
                p2: 7,
                rel: CmpRel::Lt,
                r2: 1,
                r3: 2,
            }));
            a.br_ctop(top);
        }
        a.hlt();
        a.finish()
    };
    let bands = LatencyBands { coherent_min: 165 };
    let mut profile = SystemProfile::new(bands);
    let mut delta = ProfileDelta {
        samples: 500,
        ..ProfileDelta::default()
    };
    delta.window.instructions = 1_000_000;
    delta.window.cycles = 1_500_000;
    delta.window.bus_memory = 10_000;
    delta.window.bus_coherent = 4_000;
    for head in (0..32u32).map(|k| k * 12) {
        for _ in 0..20 {
            delta.branch_pairs.push((head + 9, head));
            delta
                .dear_events
                .push((head + 3, 0x1000 + head as u64 * 128, 200));
        }
    }
    profile.absorb(&delta);
    (image, profile)
}

fn bench_cobra_decision(c: &mut Criterion) {
    // COBRA's reaction time: trace selection + a full optimizer pass over a
    // profile with many branch pairs and delinquent loads.
    let (image, profile) = decision_inputs();

    c.bench_function("components/cobra/trace_selection", |b| {
        b.iter(|| select_loops(criterion::black_box(&profile), &TraceConfig::default()))
    });
    c.bench_function("components/cobra/optimizer_full_pass", |b| {
        b.iter_batched(
            || {
                Optimizer::new(
                    OptimizerConfig {
                        warmup_ticks: 0,
                        ..Default::default()
                    },
                    image.clone(),
                )
            },
            |mut opt| opt.consider(criterion::black_box(&profile)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_verify_overhead(c: &mut Criterion) {
    // The patch-safety gate runs once per deployment, i.e. once per monitor
    // quantum at most. Prove it costs <5% of a deployment tick, where a
    // tick is what the runtime actually pays per quantum: simulating the
    // quantum (floored by the cheapest busy workload — anything realistic
    // is slower) plus the plan-emitting optimizer pass. Both sides are
    // min-of-N wall time; the verification side re-checks every plan the
    // fixture tick emits.
    let (image, profile) = decision_inputs();
    let cfg = |verify: bool| OptimizerConfig {
        warmup_ticks: 0,
        deploy: DeployMode::InPlace,
        verify,
        ..Default::default()
    };
    let mut opt = Optimizer::new(cfg(true), image.clone());
    let window = opt.config().trace.entry_window_slots;
    let plans: Vec<PatchPlan> = opt
        .consider(&profile)
        .into_iter()
        .filter_map(|a| match a {
            PlanAction::Apply(p) => Some(p),
            PlanAction::Revert { .. } => None,
        })
        .collect();
    assert!(!plans.is_empty(), "fixture tick must emit plans");
    assert_eq!(
        opt.telemetry().report().verify_rejects,
        0,
        "fixture plans must verify"
    );

    fn min_ns(reps: usize, mut f: impl FnMut()) -> u64 {
        (0..reps)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap()
            .max(1)
    }
    let consider_ns = min_ns(30, || {
        let mut opt = Optimizer::new(cfg(false), image.clone());
        criterion::black_box(opt.consider(criterion::black_box(&profile)));
    });
    // Quantum floor: 4 cores of pure arithmetic for the default 20k-cycle
    // monitor quantum. Every rep continues the same long-running loop, so
    // each times a fully busy quantum.
    let mut m = Machine::new(MachineConfig::smp4(), arith_loop_image());
    for cpu in 0..4 {
        m.spawn_thread(cpu, 0, &[]);
    }
    let quantum_ns = min_ns(5, || {
        criterion::black_box(m.run(20_000));
    });
    let tick_ns = quantum_ns + consider_ns;
    let verify_ns = min_ns(100, || {
        for p in &plans {
            verify_plan(
                criterion::black_box(&image),
                criterion::black_box(p),
                window,
            )
            .expect("captured plan verifies");
        }
    });
    assert!(
        verify_ns as f64 <= tick_ns as f64 * 0.05,
        "verification must add <5% to a deployment tick: \
         tick {tick_ns} ns (quantum {quantum_ns} + optimizer {consider_ns}), \
         verify {verify_ns} ns ({} plans)",
        plans.len()
    );
    bench_metric(
        c,
        "components/verify",
        BenchmarkId::new("overhead_ns", "deploy_tick"),
        tick_ns,
    );
    bench_metric(
        c,
        "components/verify",
        BenchmarkId::new("overhead_ns", "optimizer_pass"),
        consider_ns,
    );
    bench_metric(
        c,
        "components/verify",
        BenchmarkId::new("overhead_ns", "verify_all_plans"),
        verify_ns,
    );

    c.bench_function("components/verify/plan_check", |b| {
        b.iter(|| {
            for p in &plans {
                criterion::black_box(
                    verify_plan(
                        criterion::black_box(&image),
                        criterion::black_box(p),
                        window,
                    )
                    .is_ok(),
                );
            }
        })
    });
}

fn bench_osr_overhead(c: &mut Criterion) {
    // OSR's control plane runs once per trace deployment: build the state
    // mapping, verify it, arm the redirect table (and disarm it once the
    // watch converges). Its data plane is one redirect-table lookup per
    // taken branch while a watch is armed. Prove the whole mechanism —
    // control plane over every plan the fixture tick emits, plus the armed
    // quantum's lookup delta — adds <5% to a deployment tick (quantum +
    // optimizer pass, as in the verify-overhead budget).
    let (image, profile) = decision_inputs();
    let mut opt = Optimizer::new(
        OptimizerConfig {
            warmup_ticks: 0,
            deploy: DeployMode::TraceCache,
            ..Default::default()
        },
        image.clone(),
    );
    let plans: Vec<PatchPlan> = opt
        .consider(&profile)
        .into_iter()
        .filter_map(|a| match a {
            PlanAction::Apply(p) if p.trace.is_some() => Some(p),
            _ => None,
        })
        .collect();
    assert!(!plans.is_empty(), "fixture tick must emit trace plans");

    fn min_ns(reps: usize, mut f: impl FnMut()) -> u64 {
        (0..reps)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap()
            .max(1)
    }
    let consider_ns = min_ns(30, || {
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                deploy: DeployMode::TraceCache,
                verify: false,
                ..Default::default()
            },
            image.clone(),
        );
        criterion::black_box(opt.consider(criterion::black_box(&profile)));
    });
    let mut m = Machine::new(MachineConfig::smp4(), arith_loop_image());
    for cpu in 0..4 {
        m.spawn_thread(cpu, 0, &[]);
    }
    let quantum_ns = min_ns(5, || {
        criterion::black_box(m.run(20_000));
    });
    let tick_ns = quantum_ns + consider_ns;

    // Control plane: map + verification + arm/disarm for every plan.
    let mut arm_machine = Machine::new(MachineConfig::smp4(), image.clone());
    let control_ns = min_ns(100, || {
        for p in &plans {
            let t = p.trace.as_ref().unwrap();
            let map = OsrMap::for_trace(p.id, p.loop_head, p.back_edge, t.expected_start);
            check_osr_map(
                criterion::black_box(&image),
                criterion::black_box(&map),
                p.kind.into(),
                &t.insns,
            )
            .expect("captured plan's map verifies");
            arm_machine.arm_redirect(p.id, &map.redirect_pairs());
            criterion::black_box(arm_machine.disarm_redirect(p.id));
        }
    });

    // Data plane: per-branch lookup cost while armed, as the delta between
    // an armed and an unarmed solo quantum (the armed edges point outside
    // the loop, so control flow — and thus the work simulated — is
    // identical).
    let mut solo = Machine::new(MachineConfig::smp4(), arith_loop_image());
    solo.spawn_thread(0, 0, &[]);
    let solo_ns = min_ns(5, || {
        criterion::black_box(solo.run(20_000));
    });
    solo.arm_redirect(u64::MAX, &[(0x00f0_0000, 0x00f0_0010)]);
    let armed_ns = min_ns(5, || {
        criterion::black_box(solo.run(20_000));
    });
    assert_eq!(solo.disarm_redirect(u64::MAX), 0, "sentinel edge never hit");
    let lookup_delta_ns = armed_ns.saturating_sub(solo_ns);

    let osr_ns = control_ns + lookup_delta_ns;
    assert!(
        osr_ns as f64 <= tick_ns as f64 * 0.05,
        "OSR migration must add <5% to a deployment tick: \
         tick {tick_ns} ns (quantum {quantum_ns} + optimizer {consider_ns}), \
         osr {osr_ns} ns (control {control_ns} + armed lookup delta \
         {lookup_delta_ns}, {} plans)",
        plans.len()
    );
    bench_metric(
        c,
        "components/osr",
        BenchmarkId::new("overhead_ns", "deploy_tick"),
        tick_ns,
    );
    bench_metric(
        c,
        "components/osr",
        BenchmarkId::new("overhead_ns", "control_plane"),
        control_ns,
    );
    bench_metric(
        c,
        "components/osr",
        BenchmarkId::new("overhead_ns", "armed_lookup_delta"),
        lookup_delta_ns,
    );

    c.bench_function("components/osr/map_build_and_check", |b| {
        b.iter(|| {
            for p in &plans {
                let t = p.trace.as_ref().unwrap();
                let map = OsrMap::for_trace(p.id, p.loop_head, p.back_edge, t.expected_start);
                criterion::black_box(
                    check_osr_map(criterion::black_box(&image), &map, p.kind.into(), &t.insns)
                        .is_ok(),
                );
            }
        })
    });
}

fn bench_telemetry(c: &mut Criterion) {
    // Hot-path cost of one emit (+ its share of the periodic drain into a
    // JSONL sink that discards the bytes). This is what monitoring threads
    // pay per event.
    c.bench_function("components/telemetry/emit_and_drain", |b| {
        let sink = TelemetrySink::jsonl(Box::new(std::io::sink()));
        let mut hub = TelemetryHub::new(sink, 4096);
        let emitter = hub.emitter();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            emitter.emit(criterion::black_box(TelemetryEvent::UsbLevel {
                tick: i,
                cpu: 0,
                occupancy: 3,
                capacity: 8192,
                dropped_total: 0,
            }));
            if i.is_multiple_of(1024) {
                hub.drain();
            }
        })
    });

    // End-to-end guard: the telemetry-enabled DAXPY run must stay within
    // 5% of the disabled one (the simulated-cycle cost of emitting and
    // draining the whole pipeline's events). Both totals are reported as
    // metrics so the comparison is visible in the bench output.
    fn daxpy_cycles(telemetry: bool) -> u64 {
        let cfg = MachineConfig::smp4();
        let wl = Daxpy::build(
            DaxpyParams::new(128 * 1024, 24),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let mut m = Machine::new(cfg.clone(), wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut builder = Cobra::builder().strategy(Strategy::NoPrefetch);
        if telemetry {
            let (sink, _log) = TelemetrySink::memory();
            builder = builder.telemetry(sink);
        }
        let mut cobra = builder.attach(&mut m);
        let rt = OmpRuntime {
            quantum: 20_000,
            ..OmpRuntime::default()
        };
        let run = wl.run(&mut m, Team::new(4), &rt, &mut cobra);
        cobra.detach(&mut m);
        run.cycles
    }
    let disabled = daxpy_cycles(false);
    let enabled = daxpy_cycles(true);
    assert!(
        enabled as f64 <= disabled as f64 * 1.05,
        "telemetry-enabled DAXPY must stay within 5%: {disabled} vs {enabled}"
    );
    bench_metric(
        c,
        "components/telemetry",
        BenchmarkId::new("daxpy_cycles", "disabled"),
        disabled,
    );
    bench_metric(
        c,
        "components/telemetry",
        BenchmarkId::new("daxpy_cycles", "enabled"),
        enabled,
    );
}

criterion_group!(
    benches,
    bench_isa,
    bench_memsys,
    bench_machine_stepping,
    bench_cobra_decision,
    bench_verify_overhead,
    bench_osr_overhead,
    bench_telemetry
);
criterion_main!(benches);
