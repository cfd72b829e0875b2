//! The fleet phase of a traced `osr-tournament` run: an in-process
//! `FleetServer` persisting to a scratch directory, driven by two
//! closed-loop client connections that alternate `upload` and
//! `fetch_seed` over a seeded pool of real snapshots. Its request latency
//! is bound by thread wake-ups and spread too widely on the reference
//! host to gate a regression, so it reports per-layer figures only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cobra_fleet::{FleetClient, FleetConfig, FleetServer};
use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::PrefetchPolicy;
use cobra_rt::Strategy;
use cobra_store::{merge_unordered, Snapshot, Store, StoreKey};

use crate::grids::Rng;
use crate::sim::{run_trial, Attach, Layers, Mach, Trial};
use crate::stats::{median, percentile, tail_percentile, Tally};

/// Benchmarks whose adaptive runs seed the upload pool (one key each).
const POOL_BENCHES: [Benchmark; 3] = [Benchmark::Cg, Benchmark::Mg, Benchmark::Ft];
/// Snapshots in the upload pool.
const POOL_SIZE: usize = 64;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Per-request timeout; a request that takes longer counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Uploads replayed through `merge_unordered` and `Store::save`.
const REPLAY_CAP: usize = 1000;

/// One key of the pool: the real image words the server verifies seeds
/// against, and the runs the server has acknowledged folding into it.
struct KeyInfo {
    key: StoreKey,
    words: Vec<u64>,
    runs: u64,
}

pub struct FleetSetup {
    server: FleetServer,
    addr: String,
    dir: PathBuf,
    keys: Vec<KeyInfo>,
    pool: Vec<Snapshot>,
}

impl FleetSetup {
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A partial history derived from a real snapshot: some of its decisions
/// and winners, a varied run count, and CPIs perturbed by up to ±10%.
fn derive(base: &Snapshot, rng: &mut Rng) -> Snapshot {
    let mut s = base.clone();
    s.runs = 1 + rng.below(4) as u64;
    s.decisions.retain(|_| rng.below(3) != 0);
    s.winners.retain(|_| rng.below(3) != 0);
    let mut scale = |x: f64| x * (0.9 + 0.2 * (rng.below(1001) as f64 / 1000.0));
    for d in &mut s.decisions {
        d.baseline_cpi = scale(d.baseline_cpi);
        d.post_cpi = d.post_cpi.map(&mut scale);
    }
    s
}

/// Start the server, run the adaptive NPB runs behind the pool, derive
/// the seeded pool and fold one full snapshot per key so every fetch has
/// a seed to serve.
pub fn setup(scratch: &Path, seed: u64) -> Result<FleetSetup, String> {
    let mach = Mach::Smp4;
    let cfg = mach.cfg();
    let programs: Vec<_> = POOL_BENCHES
        .iter()
        .map(|&b| npb::build(b, &PrefetchPolicy::aggressive(), cfg.mem_bytes))
        .collect();
    let mut keys = Vec::new();
    let mut bases = Vec::new();
    for (b, wl) in POOL_BENCHES.iter().zip(&programs) {
        let store: &'static str = match b {
            Benchmark::Cg => "pool-cg",
            Benchmark::Mg => "pool-mg",
            _ => "pool-ft",
        };
        let trial = Trial {
            id: format!("fleet-pool/{}", b.name()),
            mach,
            threads: mach.threads(),
            program: 0,
            attach: Attach::Fig5 {
                strategy: Strategy::Adaptive,
                store: Some(store),
            },
        };
        run_trial(&trial, &**wl, scratch, false)?;
        let image = wl.image();
        let key = StoreKey::for_run(image, &cfg);
        let snap = Store::new(scratch.join(store))
            .load(&key)
            .snapshot
            .ok_or_else(|| format!("{}: the adaptive run saved no snapshot", trial.id))?;
        keys.push(KeyInfo {
            key,
            words: image.words()[..image.main_len() as usize].to_vec(),
            runs: snap.runs,
        });
        bases.push(snap);
    }
    let mut rng = Rng::new(seed);
    let pool = (0..POOL_SIZE)
        .map(|_| derive(&bases[rng.below(bases.len())], &mut rng))
        .collect();

    let dir = scratch.join("fleet-state");
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            dir: Some(dir.clone()),
            ..FleetConfig::default()
        },
    )?;
    let addr = server.local_addr().to_string();
    let mut client = FleetClient::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    for (k, snap) in keys.iter().zip(&bases) {
        client.upload(snap, Some(&k.words))?;
    }
    Ok(FleetSetup {
        server,
        addr,
        dir,
        keys,
        pool,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Upload,
    Fetch,
}

/// One request as the client saw it.
struct Op {
    kind: Kind,
    micros: f64,
    /// Pool index (uploads) or key index (fetches).
    item: usize,
    ok: bool,
}

/// One client's closed loop until `deadline`: even requests upload a
/// seeded pool entry, odd ones fetch a seeded key's seed. A failed
/// request reconnects before the next one.
fn client_loop(s: &FleetSetup, seed: u64, deadline: Instant) -> (Vec<Op>, Vec<String>) {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut errors = Vec::new();
    let mut conn: Option<FleetClient> = None;
    let mut n = 0usize;
    while Instant::now() < deadline {
        let kind = if n.is_multiple_of(2) {
            Kind::Upload
        } else {
            Kind::Fetch
        };
        n += 1;
        let item = match kind {
            Kind::Upload => rng.below(s.pool.len()),
            Kind::Fetch => rng.below(s.keys.len()),
        };
        let t = Instant::now();
        let res = (|| -> Result<(), String> {
            if conn.is_none() {
                conn = Some(FleetClient::connect_timeout(&s.addr, REQUEST_TIMEOUT)?);
            }
            let c = conn.as_mut().expect("connected above");
            match kind {
                Kind::Upload => {
                    let snap = &s.pool[item];
                    let words = &s
                        .keys
                        .iter()
                        .find(|k| k.key == snap.key)
                        .expect("pool key")
                        .words;
                    c.upload(snap, Some(words)).map(|_| ())
                }
                Kind::Fetch => {
                    let key = s.keys[item].key;
                    match c.fetch_seed(&key)? {
                        Some(seed) if seed.key == key => Ok(()),
                        Some(seed) => Err(format!("fetch {key}: served key {}", seed.key)),
                        None => Err(format!("fetch {key}: no seed for a preloaded key")),
                    }
                }
            }
        })();
        let micros = t.elapsed().as_secs_f64() * 1e6;
        if let Err(e) = &res {
            conn = None;
            errors.push(e.clone());
        }
        ops.push(Op {
            kind,
            micros,
            item,
            ok: res.is_ok(),
        });
    }
    (ops, errors)
}

/// What one measured window produced.
pub struct FleetOut {
    pub tally: Tally,
    pub errors: Vec<String>,
    pub layers: Layers,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Latency percentiles (µs) of one request kind: median and the highest
/// tail percentile with at least ten samples beyond it.
fn latency(ops: &[&Op], kind: Kind) -> (f64, f64) {
    let mut v: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind == kind)
        .map(|o| o.micros)
        .collect();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let tail = tail_percentile(v.len()).unwrap_or(50.0);
    (percentile(&v, 50.0), percentile(&v, tail))
}

/// Drive the server for `seconds` with [`CLIENTS`] closed-loop clients,
/// then check the fold: each key's served seed must hold exactly the runs
/// acknowledged for it so far. The uploads are then replayed through
/// `merge_unordered` and `Store::save` to time the store layer alone.
pub fn measure(s: &mut FleetSetup, seed: u64, seconds: f64, scratch: &Path) -> FleetOut {
    let start = Instant::now();
    let s_ref: &FleetSetup = s;
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Op>, Vec<String>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                sc.spawn(move || {
                    client_loop(
                        s_ref,
                        seed.wrapping_mul(31).wrapping_add(c as u64),
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut ops: Vec<&Op> = Vec::new();
    for (o, e) in &results {
        for op in o {
            tally.record(&if op.ok { Ok(()) } else { Err(()) });
            ops.push(op);
        }
        errors.extend(e.iter().cloned());
    }

    // The fold check: served runs = every acknowledged upload, preload
    // and earlier windows included.
    let mut added = vec![0u64; s.keys.len()];
    for op in ops.iter().filter(|o| o.ok && o.kind == Kind::Upload) {
        let snap = &s.pool[op.item];
        let k = s
            .keys
            .iter()
            .position(|k| k.key == snap.key)
            .expect("pool key");
        added[k] += snap.runs;
    }
    for (k, n) in s.keys.iter_mut().zip(added) {
        k.runs += n;
    }
    match FleetClient::connect_timeout(&s.addr, REQUEST_TIMEOUT) {
        Ok(mut c) => {
            for k in &s.keys {
                let expect = k.runs;
                match c.fetch_seed(&k.key) {
                    Ok(Some(seed)) if seed.runs == expect => {}
                    Ok(other) => errors.push(format!(
                        "fold check {}: served runs {:?}, uploaded {expect}",
                        k.key,
                        other.map(|s| s.runs)
                    )),
                    Err(e) => errors.push(format!("fold check {}: {e}", k.key)),
                }
            }
        }
        Err(e) => errors.push(format!("fold check: {e}")),
    }
    let stats = s.server.stats();
    for (name, v) in [
        ("upload_rejects", stats.upload_rejects),
        ("frames_rejected", stats.frames_rejected),
        ("verify_dropped", stats.verify_dropped),
        ("served_unverified", stats.served_unverified),
        ("persist_errors", stats.persist_errors),
    ] {
        if v != 0 {
            errors.push(format!("fleet stats: {name} = {v}"));
        }
    }

    let mut layers = Layers::default();
    let uploads_ok = ops
        .iter()
        .filter(|o| o.ok && o.kind == Kind::Upload)
        .count();
    let (up50, up_tail) = latency(&ops, Kind::Upload);
    let (f50, f_tail) = latency(&ops, Kind::Fetch);
    for (name, v) in [
        ("fold_per_s", uploads_ok as f64 / elapsed),
        ("upload_p50_us", up50),
        ("upload_p99_us", up_tail),
        ("fetch_p50_us", f50),
        ("fetch_p99_us", f_tail),
        ("fleet.state_bytes", dir_bytes(&s.dir) as f64),
        ("fleet.frames_rejected", stats.frames_rejected as f64),
        ("fleet.upload_rejects", stats.upload_rejects as f64),
        ("fleet.verify_dropped", stats.verify_dropped as f64),
        ("fleet.served_unverified", stats.served_unverified as f64),
        ("fleet.persist_errors", stats.persist_errors as f64),
        (
            "fleet.seed_hit_ratio",
            stats.seed_hits as f64 / stats.seed_requests.max(1) as f64,
        ),
    ] {
        layers.add(name, v);
    }
    let (merge_us, save_us) = replay(s, &ops, &scratch.join("replay"));
    layers.add("store.merge_us", merge_us);
    layers.add("store.save_us", save_us);

    FleetOut {
        tally,
        errors,
        layers,
    }
}

/// Fold the acknowledged uploads with `merge_unordered` and save each
/// folded state with `Store::save`, as a shard does; returns the median
/// microseconds of each call.
fn replay(s: &FleetSetup, ops: &[&Op], dir: &Path) -> (f64, f64) {
    let store = Store::new(dir);
    let _ = std::fs::create_dir_all(dir);
    let mut acc: BTreeMap<usize, Snapshot> = BTreeMap::new();
    let mut merge_us = Vec::new();
    let mut save_us = Vec::new();
    for op in ops
        .iter()
        .filter(|o| o.ok && o.kind == Kind::Upload)
        .take(REPLAY_CAP)
    {
        let snap = &s.pool[op.item];
        let k = s
            .keys
            .iter()
            .position(|k| k.key == snap.key)
            .expect("pool key");
        let prev = acc.remove(&k).unwrap_or_else(|| Snapshot::empty(snap.key));
        let t = Instant::now();
        let Ok(folded) = merge_unordered(&[prev, snap.clone()]) else {
            continue;
        };
        merge_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        if store.save(&folded).is_ok() {
            save_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        acc.insert(k, folded);
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    (med(&merge_us), med(&save_us))
}
