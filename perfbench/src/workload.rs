//! The workloads: their parameters and their inputs, materialised
//! from the seed before anything is timed.

use tdn_core::{HistApprox, SieveAdnTracker, SpreadStatsSnapshot, TrackerConfig, TrackerEngine};
use tdn_graph::Time;
use tdn_persist::Persist;
use tdn_serve::TenantId;
use tdn_streams::{
    Dataset, GeometricLifetime, LifetimeAssigner, StepBatches, TenantWorkload,
    TenantWorkloadConfig, TimedEdge,
};

/// A hosted engine family, plus the tallies the traced run reads from it.
pub trait Engine: TrackerEngine + Persist + Send + 'static {
    /// The engine's incremental spread-engine tallies.
    fn spread(&self) -> SpreadStatsSnapshot;
}

impl Engine for SieveAdnTracker {
    fn spread(&self) -> SpreadStatsSnapshot {
        self.spread_stats()
    }
}

impl Engine for HistApprox {
    fn spread(&self) -> SpreadStatsSnapshot {
        self.spread_stats()
    }
}

/// One submitted batch: tenant, tick, edges.
pub type Batch = (TenantId, Time, Vec<TimedEdge>);

/// Everything a run feeds the server, plus how it is fed.
pub struct Plan {
    /// Workload parameters, for the run header.
    pub params: Vec<(&'static str, String)>,
    pub shards: usize,
    pub tracker: TrackerConfig,
    /// `ticks[..warmup]` are untimed set-up.
    pub warmup: usize,
    /// `ticks[warmup..crash_at]` are the timed ingest; the server then
    /// checkpoints every tenant (a clean shutdown), is dropped, recovered,
    /// and fed every tick again.
    pub crash_at: usize,
    /// One flush per entry: the batches submitted before it, in order.
    pub ticks: Vec<Vec<Batch>>,
    /// Every tenant of the input, ascending: each is queried after every
    /// timed flush.
    pub tenants: Vec<TenantId>,
}

impl Plan {
    /// Events in `ticks[range]`.
    pub fn events(&self, range: std::ops::Range<usize>) -> u64 {
        self.ticks[range]
            .iter()
            .flatten()
            .map(|(_, _, e)| e.len() as u64)
            .sum()
    }
}

/// SplitMix64 finalizer: decorrelates the per-workload generator seeds.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const FIREHOSE_TENANTS: u32 = 600;
const FIREHOSE_EVENTS_PER_TICK: u32 = 28;
const FIREHOSE_ZIPF: f64 = 0.9;
const FIREHOSE_NODES: u32 = 400;
const FIREHOSE_LIFETIME: u32 = 12;
const FIREHOSE_SHARDS: usize = 8;
const SIEVE_K: usize = 10;
const SIEVE_EPS: f64 = 0.2;
/// Untimed warm-up: two full lifetimes, so every window is at steady state.
const FIREHOSE_WARMUP: usize = 24;
const FIREHOSE_TIMED: usize = 250;

const HIST_K: usize = 10;
const HIST_EPS: f64 = 0.3;
const HIST_L: u32 = 10_000;
const HIST_P: f64 = 0.001;
const HIST_BATCH_TICKS: usize = 8;
const HIST_WARMUP_STEPS: usize = 100;
const HIST_TIMED_STEPS: usize = 250;
const HIST_STREAMS: u64 = 4;

/// Every workload crashes at this share of its stream: warm-up and timed
/// ticks come before the crash, and the replay applies the rest.
const CRASH_FRACTION: f64 = 0.6;

/// Stream length that puts the crash after `warmup + timed` ticks.
fn stream_len(warmup: usize, timed: usize) -> usize {
    ((warmup + timed) as f64 / CRASH_FRACTION).round() as usize
}

/// The multi-tenant firehose of `ticks` ticks: each tick's non-empty
/// batches in the rotating tenant order of `TenantWorkload::interleaved`.
fn firehose_ticks(seed: u64, ticks: usize) -> (TenantWorkloadConfig, Vec<Vec<Batch>>) {
    let cfg = TenantWorkloadConfig {
        tenants: FIREHOSE_TENANTS,
        ticks: ticks as u64,
        events_per_tick: FIREHOSE_EVENTS_PER_TICK,
        tenant_zipf: FIREHOSE_ZIPF,
        nodes: FIREHOSE_NODES,
        node_zipf: 1.0,
        max_lifetime: FIREHOSE_LIFETIME,
        seed: mix(seed ^ 0x5E22_7E00),
    };
    let w = TenantWorkload::new(cfg.clone());
    let n = u64::from(FIREHOSE_TENANTS);
    let out = (0..ticks as u64)
        .map(|t| {
            (0..n)
                .filter_map(|slot| {
                    let tenant = (slot + t) % n;
                    let edges = w.batch_at(tenant as u32, t);
                    (!edges.is_empty()).then_some((tenant, t, edges))
                })
                .collect()
        })
        .collect();
    (cfg, out)
}

fn tenants_of(ticks: &[Vec<Batch>]) -> Vec<TenantId> {
    let mut ids: Vec<TenantId> = ticks.iter().flatten().map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `firehose_sieve`: 600 Zipf tenants, tiny SieveADN steps, no persist
/// during ingest, one flush per tick.
pub fn firehose_sieve(seed: u64) -> Vec<Plan> {
    let timed = FIREHOSE_TIMED;
    let len = stream_len(FIREHOSE_WARMUP, timed);
    let (cfg, ticks) = firehose_ticks(seed, len);
    vec![Plan {
        params: vec![
            ("tracker", "SieveADN".into()),
            ("k", SIEVE_K.to_string()),
            ("eps", SIEVE_EPS.to_string()),
            ("tenants", cfg.tenants.to_string()),
            ("tenant_zipf", cfg.tenant_zipf.to_string()),
            ("events_per_tick_head", cfg.events_per_tick.to_string()),
            ("nodes", cfg.nodes.to_string()),
            ("max_lifetime", cfg.max_lifetime.to_string()),
            ("shards", FIREHOSE_SHARDS.to_string()),
            ("warmup_ticks", FIREHOSE_WARMUP.to_string()),
            ("timed_ticks", timed.to_string()),
            ("stream_ticks", len.to_string()),
        ],
        shards: FIREHOSE_SHARDS,
        tracker: TrackerConfig::new(SIEVE_K, SIEVE_EPS, FIREHOSE_LIFETIME),
        warmup: FIREHOSE_WARMUP,
        crash_at: FIREHOSE_WARMUP + timed,
        tenants: tenants_of(&ticks),
        ticks,
    }]
}

/// `single_hist`: one tenant, HistApprox on the synthetic twitter-higgs
/// stream with Geo(p) lifetimes (the paper's §V-B setting), in 8-tick
/// batches on one shard. The work per event differs from one generated
/// stream to the next by up to a third, so a run cycles through
/// [`HIST_STREAMS`] streams made from its seed.
pub fn single_hist(seed: u64) -> Vec<Plan> {
    (0..HIST_STREAMS)
        .map(|i| single_hist_stream(mix(seed ^ 0x4816_6500 ^ (i << 32))))
        .collect()
}

fn single_hist_stream(stream_seed: u64) -> Plan {
    let steps = stream_len(HIST_WARMUP_STEPS, HIST_TIMED_STEPS);
    let mut lifetimes = GeometricLifetime::new(HIST_P, HIST_L, stream_seed ^ 0xA55A_F00D);
    let tagged: Vec<(Time, Vec<TimedEdge>)> =
        StepBatches::new(Dataset::TwitterHiggs.stream(stream_seed))
            .take(steps * HIST_BATCH_TICKS)
            .map(|(t, batch)| {
                let edges = batch
                    .iter()
                    .map(|it| TimedEdge::new(it.src, it.dst, lifetimes.assign(it)))
                    .collect();
                (t, edges)
            })
            .collect();
    let windows: Vec<Vec<Batch>> = tagged
        .chunks(HIST_BATCH_TICKS)
        .map(|window| {
            let t = window[0].0;
            let edges: Vec<TimedEdge> =
                window.iter().flat_map(|(_, e)| e.iter().copied()).collect();
            // An empty window submits nothing; the next step ages the graph.
            if edges.is_empty() {
                Vec::new()
            } else {
                vec![(0, t, edges)]
            }
        })
        .collect();
    Plan {
        params: vec![
            ("tracker", "HistApprox".into()),
            ("k", HIST_K.to_string()),
            ("eps", HIST_EPS.to_string()),
            ("max_lifetime", HIST_L.to_string()),
            ("lifetime", format!("Geo({HIST_P})")),
            ("dataset", Dataset::TwitterHiggs.slug().into()),
            ("batch_ticks", HIST_BATCH_TICKS.to_string()),
            ("warmup_steps", HIST_WARMUP_STEPS.to_string()),
            ("timed_steps", HIST_TIMED_STEPS.to_string()),
            ("stream_steps", steps.to_string()),
            ("shards", "1".into()),
        ],
        shards: 1,
        tracker: TrackerConfig::new(HIST_K, HIST_EPS, HIST_L),
        warmup: HIST_WARMUP_STEPS,
        crash_at: HIST_WARMUP_STEPS + HIST_TIMED_STEPS,
        tenants: tenants_of(&windows),
        ticks: windows,
    }
}
