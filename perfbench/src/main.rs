//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload npb-grid --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload once untraced and once with the timing hook, and
//! prints the per-layer metrics plus the tracing overhead. The last line
//! of standard output is the result object; the line before it records
//! the environment. `--record` rewrites the recorded counters of a
//! simulation workload (see `README.md`).

mod calib;
mod fleet;
mod grids;
mod hook;
mod sim;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use calib::Calibrator;
use grids::{SimKind, SimSetup};
use sim::Layers;
use stats::{median, Tally};

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["npb-grid", "osr-tournament", "daxpy-scaling"];

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`).
const END_TO_END: [(&str, &str, &str); 3] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`). Layers
/// a workload does not exercise read 0.
const PER_LAYER: [(&str, &str, &str); 65] = [
    ("kernels.build_s", "s", "lower"),
    ("machine.sim_s", "s", "lower"),
    ("machine.ns_per_inst", "ns", "lower"),
    ("machine.inst_retired", "count", "lower"),
    ("machine.core_cycles", "count", "lower"),
    ("machine.stall_cycles", "count", "lower"),
    ("machine.block_builds", "count", "lower"),
    ("machine.fallback_mem_boundary_cycles", "count", "lower"),
    ("machine.fallback_sampling_cycles", "count", "lower"),
    ("machine.horizon_cycles", "count", "higher"),
    ("memsys.l1d_misses", "count", "lower"),
    ("memsys.l3_misses", "count", "lower"),
    ("memsys.bus_transactions", "count", "lower"),
    ("memsys.coherent_events", "count", "lower"),
    ("memsys.fast_hits", "count", "higher"),
    ("memsys.fast_hits_per_kinst", "1/kinst", "higher"),
    ("perfmon.samples", "count", "lower"),
    ("rt.samples_merged", "count", "lower"),
    ("rt.ticks", "count", "lower"),
    ("rt.hook_s", "s", "lower"),
    ("rt.hook_us_per_tick", "us", "lower"),
    ("rt.attach_s", "s", "lower"),
    ("rt.detach_s", "s", "lower"),
    ("rt.overhead_cycles", "count", "lower"),
    ("optimizer.applied", "count", "higher"),
    ("optimizer.reverted", "count", "lower"),
    ("optimizer.candidates_trialed", "count", "lower"),
    ("optimizer.tournaments_promoted", "count", "higher"),
    ("optimizer.phase_changes", "count", "lower"),
    ("verify.rejects", "count", "lower"),
    ("osr.migrations", "count", "higher"),
    ("osr.reverse_migrations", "count", "higher"),
    ("osr.rejects", "count", "lower"),
    ("telemetry.records", "count", "lower"),
    ("telemetry.dropped", "count", "lower"),
    ("telemetry.bytes", "bytes", "lower"),
    ("store.warm_hits", "count", "higher"),
    ("store.warm_mismatches", "count", "lower"),
    ("store.saved_records", "count", "lower"),
    ("store.skipped_records", "count", "lower"),
    ("store.errors", "count", "lower"),
    ("store.merge_us", "us", "lower"),
    ("store.save_us", "us", "lower"),
    ("fleet.state_bytes", "bytes", "lower"),
    ("fleet.frames_rejected", "count", "lower"),
    ("fleet.upload_rejects", "count", "lower"),
    ("fleet.verify_dropped", "count", "lower"),
    ("fleet.served_unverified", "count", "lower"),
    ("fleet.persist_errors", "count", "lower"),
    ("fleet.seed_hit_ratio", "ratio", "higher"),
    ("sim_minst_per_s", "Minst/s", "higher"),
    ("speedup_cold_pct", "%", "higher"),
    ("speedup_warm_pct", "%", "higher"),
    ("time_to_optimized_ticks", "ticks", "lower"),
    ("fold_per_s", "1/s", "higher"),
    ("upload_p50_us", "us", "lower"),
    ("upload_p99_us", "us", "lower"),
    ("fetch_p50_us", "us", "lower"),
    ("fetch_p99_us", "us", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("host.raw_wall_s", "s", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Set-ups per run; `setup_s` is their median.
const SIM_SETUPS: usize = 41;
/// Seconds of fleet traffic in a traced `osr-tournament` run.
const FLEET_PHASE_S: f64 = 5.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        trace,
        record,
    })
}

/// Output of a command, trimmed, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Removes the run's scratch directory when the run returns, whether it
/// succeeded or not.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a measured workload hands to the output stage.
struct Measured {
    tally: Tally,
    errors: Vec<String>,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Layers,
}

/// Run passes over the grid in seeded orders until `seconds` have passed
/// and at least the grid's minimum number of whole passes ran.
fn sim_passes(
    setup: &SimSetup,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    traced: bool,
    expected: Option<&grids::Expected>,
    cal: &mut Calibrator,
) -> Vec<grids::PassOut> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < setup.min_passes || start.elapsed().as_secs_f64() < seconds {
        let k = passes.len() as u64;
        let dir = scratch.join(format!(
            "{}-pass{k}",
            if traced { "traced" } else { "plain" }
        ));
        let _ = std::fs::create_dir_all(&dir);
        let order = grids::order(&setup.trials, seed.wrapping_add(k.wrapping_mul(0x1_0000)));
        passes.push(grids::pass(setup, &order, &dir, traced, expected, cal));
        let _ = std::fs::remove_dir_all(&dir);
    }
    passes
}

/// Per-layer values of one or more passes: counts and times per pass.
fn per_pass(passes: &[grids::PassOut]) -> Layers {
    let mut l = Layers::default();
    for p in passes {
        l.merge(&p.layers);
    }
    for v in l.0.values_mut() {
        *v /= passes.len() as f64;
    }
    l
}

/// Ratios computed from per-layer sums.
fn add_ratios(l: &mut Layers) {
    let inst = l.get("machine.inst_retired");
    let ratios = [
        (
            "machine.ns_per_inst",
            l.get("machine.sim_s") * 1e9 / inst.max(1.0),
        ),
        (
            "memsys.fast_hits_per_kinst",
            l.get("memsys.fast_hits") * 1e3 / inst.max(1.0),
        ),
        (
            "rt.hook_us_per_tick",
            l.get("rt.hook_s") * 1e6 / l.get("rt.quanta").max(1.0),
        ),
    ];
    for (name, v) in ratios {
        l.add(name, v);
    }
}

fn run_sim(kind: SimKind, args: &Args, scratch: &Path) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut setup = None;
    for _ in 0..SIM_SETUPS {
        let t = Instant::now();
        let s = grids::setup(kind);
        setup_s.push(t.elapsed().as_secs_f64());
        build_s.push(s.build_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let expected = if args.record {
        None
    } else {
        Some(grids::load_expected(kind)?)
    };

    // Traced runs alternate which half goes first, so neither always runs
    // on a colder host.
    let plain_first = !args.trace || args.seed.is_multiple_of(2);
    let (mut plain, mut plain_cal) = (Vec::new(), Calibrator::new());
    let (mut traced, mut traced_cal) = (Vec::new(), Calibrator::new());
    for half in 0..(1 + args.trace as usize) {
        let tracing = args.trace && (half == 0) != plain_first;
        let (out, cal) = if tracing {
            (&mut traced, &mut traced_cal)
        } else {
            (&mut plain, &mut plain_cal)
        };
        *out = sim_passes(
            &setup,
            args.seed,
            args.seconds,
            scratch,
            tracing,
            expected.as_ref(),
            cal,
        );
    }

    let mut tally = Tally::default();
    let mut errors = Vec::new();
    for p in plain.iter().chain(&traced) {
        tally.add(p.tally);
        errors.extend(p.errors.iter().cloned());
        if p.tally.failed == 0 {
            errors.extend(grids::shape_failures(kind, p));
        }
    }
    let derived = grids::derived(kind, &plain[0]);
    match &expected {
        Some(e) if plain[0].tally.failed == 0 => {
            for (name, want) in &e.derived {
                let got = derived.iter().find(|(n, _)| *n == name).map(|d| d.1);
                if got.is_none_or(|g| (g - want).abs() > 1e-9 * want.abs().max(1.0)) {
                    errors.push(format!("{name}: {got:?} differs from the recorded {want}"));
                }
            }
        }
        Some(_) => {}
        None => record(kind, &setup, &plain[0], &derived)?,
    }

    let raw_wall = grids::wall_s(&plain);
    let slowdown = plain_cal.slowdown();
    let wall_s = raw_wall / slowdown;
    let mut per_layer = per_pass(&traced);
    per_layer.add("host.raw_wall_s", raw_wall);
    per_layer.add("host.slowdown", slowdown);
    if args.trace {
        let traced_wall = grids::wall_s(&traced) / traced_cal.slowdown();
        per_layer.add("trace.untraced_wall_s", wall_s);
        per_layer.add("trace.traced_wall_s", traced_wall);
        per_layer.add("trace.overhead_pct", 100.0 * (traced_wall / wall_s - 1.0));
        let inst = per_pass(&plain).get("machine.inst_retired");
        per_layer.add("sim_minst_per_s", inst / 1e6 / raw_wall);
        for &(name, v) in &derived {
            per_layer.add(name, v);
        }
        per_layer.add("kernels.build_s", median(&build_s));
        add_ratios(&mut per_layer);
        if kind == SimKind::OsrTournament {
            let (t, e, l) = fleet_phase(args, scratch)?;
            tally.add(t);
            errors.extend(e);
            per_layer.merge(&l);
        }
    }
    Ok(Measured {
        tally,
        errors,
        end_to_end: vec![("wall_s", wall_s), ("setup_s", median(&setup_s) / slowdown)],
        per_layer,
    })
}

/// Write a simulation workload's recorded counters from a clean pass.
fn record(
    kind: SimKind,
    setup: &SimSetup,
    p: &grids::PassOut,
    derived: &[(&str, f64)],
) -> Result<(), String> {
    if p.tally.failed != 0 {
        return Err(format!("not recording a failing pass: {:?}", p.errors));
    }
    let failures = grids::shape_failures(kind, p);
    if !failures.is_empty() {
        return Err(format!(
            "not recording a pass that fails its shape checks: {failures:?}"
        ));
    }
    let e = grids::Expected {
        workload: kind.name().to_string(),
        trials: setup
            .trials
            .iter()
            .map(|t| (t.id.clone(), p.counters[&t.id]))
            .collect(),
        derived: derived.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
    };
    let path = grids::expected_path(kind);
    let text = serde_json::to_string_pretty(&e).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("recorded {}", path.display());
    Ok(())
}

/// The traced `osr-tournament` run's fleet phase: one fleet set-up, a
/// window of [`FLEET_PHASE_S`], and the fleet and store-fold figures.
fn fleet_phase(args: &Args, scratch: &Path) -> Result<(Tally, Vec<String>, Layers), String> {
    let dir = scratch.join("fleet");
    let mut setup = fleet::setup(&dir, args.seed)?;
    let out = fleet::measure(&mut setup, args.seed, FLEET_PHASE_S, &dir);
    setup.shutdown();
    Ok((out.tally, out.errors, out.layers))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N [--seconds S] [--trace 0|1] [--record]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(
        std::env::current_dir()
            .unwrap_or_else(|_| PathBuf::from("."))
            .join(".bench_tmp")
            .join(format!("{}-{}", args.workload, std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(1);
    }

    let env = format!(
        "{{\"env\": {{\"git_rev\": {}, \"nproc\": {}, \"rustc\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workload\": {}, \"workloads\": [{}]}}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&command_line("rustc", &["--version"])),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&args.workload),
        WORKLOADS.map(json_str).join(", "),
    );
    println!("{env}");

    let measured = match args.workload.as_str() {
        "npb-grid" => run_sim(SimKind::NpbGrid, &args, &scratch.0),
        "osr-tournament" => run_sim(SimKind::OsrTournament, &args, &scratch.0),
        _ => run_sim(SimKind::DaxpyScaling, &args, &scratch.0),
    };
    let mut m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "perfbench: measured wall {:.4} s at host slowdown {:.3}",
        m.per_layer.get("host.raw_wall_s"),
        m.per_layer.get("host.slowdown")
    );
    for e in m.errors.iter().take(20) {
        eprintln!("perfbench: FAILED {e}");
    }
    m.end_to_end.push(("peak_rss_mb", peak_rss_mb()));
    m.per_layer.add("failed_frac", m.tally.failed_frac());

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (name, unit, m.per_layer.get(name)))
            .map(|(name, unit, v)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, _)| {
                let v = m
                    .end_to_end
                    .iter()
                    .find(|x| x.0 == *name)
                    .expect("metric measured")
                    .1;
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.errors.is_empty() && m.tally.failed == 0,
        m.tally.attempted,
        m.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program runs and prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, k: &str| -> Value {
            v.as_object()
                .unwrap()
                .iter()
                .find(|(n, _)| n == k)
                .unwrap()
                .1
                .clone()
        };
        let names = |k: &str| -> Vec<String> {
            field(&v, k)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| field(m, "name").as_str().unwrap().to_string())
                .collect()
        };
        let metrics = |k: &str| -> Vec<(String, String, String)> {
            field(&v, k)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f| field(m, f).as_str().unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.to_vec());
        assert_eq!(metrics("end_to_end"), own(&END_TO_END));
        assert_eq!(metrics("per_layer"), own(&PER_LAYER));
    }
}
