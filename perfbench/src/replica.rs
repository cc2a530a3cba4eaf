//! The direct replica: one dedicated engine per tenant, stepped in the
//! order a one-thread server steps them, with each layer's public entry
//! point timed from outside — `InfluenceTracker::step`,
//! `Published::publish`, and `CheckpointChain::save` over a timing
//! `CheckpointIo`. Its final answers are also the reference the served
//! answers must equal.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tdn_graph::{Published, Time};
use tdn_persist::{CheckpointChain, CheckpointIo, SnapshotKind};
use tdn_serve::{ServeConfig, Server, TenantId, TenantSnapshot};

use crate::served::Fingerprint;
use crate::workload::{Engine, Plan};

/// `std::fs` with the time spent in each call and the bytes written
/// tallied (relaxed atomics: statistics only).
#[derive(Default)]
struct TimingIo {
    ns: AtomicU64,
    bytes: AtomicU64,
}

impl TimingIo {
    fn timed<R>(&self, op: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = op();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl CheckpointIo for TimingIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| std::fs::write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| std::fs::rename(from, to))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(|| std::fs::read(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(|| std::fs::create_dir_all(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(|| std::fs::remove_file(path))
    }
}

struct Tenant<E> {
    engine: E,
    last_t: Option<Time>,
    cell: Published<TenantSnapshot>,
    chain: CheckpointChain,
}

/// Spread-engine tallies summed over every engine.
#[derive(Clone, Copy, Default)]
pub struct Spread {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub patched_batches: u64,
    pub rebuilt_batches: u64,
    pub oracle_calls: u64,
}

impl Spread {
    fn total<E: Engine>(tenants: &BTreeMap<TenantId, Tenant<E>>) -> Spread {
        let mut acc = Spread::default();
        for t in tenants.values() {
            let s = t.engine.spread();
            acc.cache_hits += s.cache_hits;
            acc.cache_misses += s.cache_misses;
            acc.patched_batches += s.patched_batches;
            acc.rebuilt_batches += s.rebuilt_batches;
            acc.oracle_calls += t.engine.oracle_calls();
        }
        acc
    }

    fn since(self, before: Spread) -> Spread {
        Spread {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            patched_batches: self.patched_batches - before.patched_batches,
            rebuilt_batches: self.rebuilt_batches - before.rebuilt_batches,
            oracle_calls: self.oracle_calls - before.oracle_calls,
        }
    }
}

/// Self time and work per layer over the timed ticks, plus the answers.
#[derive(Default)]
pub struct Layers {
    /// Every engine step of the timed ticks.
    pub step_ns: Vec<u64>,
    pub publish_ns: u64,
    /// `CheckpointChain::save` wall time minus the IO inside it, over the
    /// checkpoint at the crash (outside the timed calls).
    pub encode_ns: u64,
    pub io_ns: u64,
    pub bytes_written: u64,
    pub base_saves: u64,
    pub delta_saves: u64,
    pub spread: Spread,
    pub bottom_up_sweeps: u64,
    /// Events per shard over the timed ticks.
    pub shard_events: Vec<u64>,
    pub at_crash: Vec<Fingerprint>,
    pub at_end: Vec<Fingerprint>,
}

fn fingerprints<E>(tenants: &BTreeMap<TenantId, Tenant<E>>) -> Vec<Fingerprint>
where
    E: Engine,
{
    tenants
        .iter()
        .map(|(&id, t)| {
            let snap = t.cell.load();
            (id, t.last_t, snap.solution.clone(), snap.oracle_calls)
        })
        .collect()
}

/// Dedicated engines fed the stream uninterrupted, one tick at a time.
/// They checkpoint at the crash, as the front-end does with
/// `checkpoint_all`, into chains under the given directory.
pub struct Replica<'p, E> {
    plan: &'p Plan,
    dir: PathBuf,
    router: Server<E>,
    io: Arc<TimingIo>,
    tenants: BTreeMap<TenantId, Tenant<E>>,
    next: usize,
    spread_before: Spread,
    out: Layers,
}

impl<'p, E: Engine> Replica<'p, E> {
    /// `dir` must not hold checkpoint files yet.
    pub fn new(plan: &'p Plan, dir: &Path) -> Result<Self, String> {
        let router = Server::<E>::new(ServeConfig::new(plan.shards, plan.tracker.clone()))
            .map_err(|e| format!("Server::new: {e}"))?;
        Ok(Replica {
            plan,
            dir: dir.to_path_buf(),
            router,
            io: Arc::new(TimingIo::default()),
            tenants: BTreeMap::new(),
            next: 0,
            spread_before: Spread::default(),
            out: Layers {
                shard_events: vec![0; plan.shards],
                ..Layers::default()
            },
        })
    }

    /// Feeds every tick before `end`.
    pub fn feed_until(&mut self, end: usize) -> Result<(), String> {
        while self.next < end {
            self.tick()?;
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), String> {
        let (plan, i) = (self.plan, self.next);
        self.next += 1;
        if i == plan.warmup {
            self.spread_before = Spread::total(&self.tenants);
        }
        let timed = (plan.warmup..plan.crash_at).contains(&i);
        let out = &mut self.out;
        // A one-thread flush drains shard 0, 1, … in turn, each in
        // arrival order: a stable sort by shard reproduces it.
        let mut order: Vec<_> = plan.ticks[i].iter().collect();
        order.sort_by_key(|(tenant, _, _)| self.router.shard_of(*tenant));
        for (tenant, t, edges) in order {
            let (tenant, t) = (*tenant, *t);
            let state = self.tenants.entry(tenant).or_insert_with(|| Tenant {
                engine: E::from_config(&plan.tracker),
                last_t: None,
                cell: Published::new(TenantSnapshot {
                    tenant,
                    t: None,
                    solution: tdn_core::Solution::empty(),
                    oracle_calls: 0,
                }),
                chain: CheckpointChain::new(&self.dir, format!("tenant-{tenant:016x}"))
                    .with_io(Arc::clone(&self.io) as Arc<dyn CheckpointIo>),
            });
            // The sweep counter is process-global: read it around this
            // step alone, since other servers step between replica ticks.
            let sweeps = tdn_graph::reach::bottom_up_sweeps();
            let s0 = Instant::now();
            let solution = state.engine.step(t, edges);
            let s1 = Instant::now();
            let sweeps = tdn_graph::reach::bottom_up_sweeps() - sweeps;
            state.cell.publish(TenantSnapshot {
                tenant,
                t: Some(t),
                solution,
                oracle_calls: state.engine.oracle_calls(),
            });
            let s2 = Instant::now();
            state.last_t = Some(t);
            if timed {
                out.step_ns.push((s1 - s0).as_nanos() as u64);
                out.bottom_up_sweeps += sweeps;
                out.publish_ns += (s2 - s1).as_nanos() as u64;
                out.shard_events[self.router.shard_of(tenant)] += edges.len() as u64;
            }
        }
        if i + 1 == plan.crash_at {
            out.spread = Spread::total(&self.tenants).since(self.spread_before);
            out.at_crash = fingerprints(&self.tenants);
            self.checkpoint_all()?;
        }
        Ok(())
    }

    /// Saves every tenant that has applied a batch, as
    /// `Server::checkpoint_all` does.
    fn checkpoint_all(&mut self) -> Result<(), String> {
        let out = &mut self.out;
        for state in self.tenants.values_mut() {
            let Some(last_t) = state.last_t else { continue };
            let io_before = self.io.ns.load(Ordering::Relaxed);
            let bytes_before = self.io.bytes.load(Ordering::Relaxed);
            let start = Instant::now();
            let receipt = state
                .chain
                .save(&state.engine, &self.plan.tracker, last_t + 1)
                .map_err(|e| format!("CheckpointChain::save: {e}"))?;
            let save_ns = start.elapsed().as_nanos() as u64;
            let io_ns = self.io.ns.load(Ordering::Relaxed) - io_before;
            out.io_ns += io_ns;
            out.encode_ns += save_ns.saturating_sub(io_ns);
            out.bytes_written += self.io.bytes.load(Ordering::Relaxed) - bytes_before;
            match receipt.kind {
                SnapshotKind::Base => out.base_saves += 1,
                SnapshotKind::Delta => out.delta_saves += 1,
            }
        }
        Ok(())
    }

    /// Feeds the rest of the stream and returns what was measured.
    pub fn finish(mut self) -> Result<Layers, String> {
        self.feed_until(self.plan.ticks.len())?;
        self.out.at_end = fingerprints(&self.tenants);
        Ok(self.out)
    }
}

/// The whole stream on its own.
pub fn run<E: Engine>(plan: &Plan, dir: &Path) -> Result<Layers, String> {
    Replica::<E>::new(plan, dir)?.finish()
}
