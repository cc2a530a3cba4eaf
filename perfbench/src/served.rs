//! One round through the public `tdn-serve` API, as a single closed-loop
//! front-end caller drives it: set-up, timed ingest with a read of every
//! tenant after each flush, crash, `Server::recover`, and a replay of the
//! whole stream.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tdn_core::Solution;
use tdn_graph::Time;
use tdn_serve::{FlushReport, ServeConfig, Server, TenantId};

use crate::workload::{Batch, Engine, Plan};

/// A tenant's observable state: id, watermark, answer, oracle tally.
pub type Fingerprint = (TenantId, Option<Time>, Solution, u64);

/// Every submitted event ends up applied, skipped by the watermark, or
/// unaccounted (a failed operation).
#[derive(Clone, Copy, Default)]
pub struct Ledger {
    pub submitted: u64,
    pub applied: u64,
    pub skipped: u64,
}

impl Ledger {
    fn absorb(&mut self, submitted: u64, report: &FlushReport) {
        self.submitted += submitted;
        self.applied += report.events;
        self.skipped += report.skipped_events;
    }

    pub fn add(&mut self, other: &Ledger) {
        self.submitted += other.submitted;
        self.applied += other.applied;
        self.skipped += other.skipped;
    }

    pub fn unaccounted(&self) -> u64 {
        self.submitted.saturating_sub(self.applied + self.skipped)
    }
}

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    /// Per timed tick: first `submit_batch` to the return of its `flush`.
    pub publish_ns: Vec<u64>,
    /// Sum of the timed `flush` calls.
    pub flush_ns: u64,
    /// Sum of the timed `submit_batch` calls (traced rounds only).
    pub submit_ns: u64,
    pub query_ns: Vec<u64>,
    /// Sum and count of the solution values the reads returned.
    pub value_sum: u64,
    pub value_count: u64,
    pub timed_events: u64,
    pub ledger: Ledger,
    /// `Server::approx_bytes` at the crash.
    pub state_bytes: usize,
    /// Checkpoint files in the chain directory at the crash.
    pub files_on_disk: usize,
    /// Sum of `load_checkpoint` over every tenant's newest file, timed
    /// from outside before recovery (traced rounds only).
    pub restore_s: f64,
    pub recover_s: f64,
    pub replay_s: f64,
    pub replay_events: u64,
    pub skipped_batches: u64,
    pub at_crash: Vec<Fingerprint>,
    pub after_replay: Vec<Fingerprint>,
}

impl Round {
    /// Wall time of the timed ticks: submits plus flushes.
    pub fn served_ns(&self) -> u64 {
        self.publish_ns.iter().sum()
    }
}

fn events_of(batches: &[Batch]) -> u64 {
    batches.iter().map(|(_, _, e)| e.len() as u64).sum()
}

fn fail(what: &str) -> impl Fn(tdn_serve::ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Submits one tick's batches and flushes them.
fn feed<E: Engine>(server: &mut Server<E>, batches: Vec<Batch>) -> Result<FlushReport, String> {
    for (tenant, t, edges) in batches {
        server
            .submit_batch(tenant, t, edges)
            .map_err(fail("submit_batch"))?;
    }
    server.flush().map_err(fail("flush"))
}

fn fingerprints<E: Engine>(server: &Server<E>) -> Vec<Fingerprint> {
    server
        .tenants()
        .into_iter()
        .filter_map(|tenant| {
            let snap = server.query(tenant)?;
            Some((tenant, snap.t, snap.solution.clone(), snap.oracle_calls))
        })
        .collect()
}

/// Checkpoint files in `dir`, and each tenant's newest one.
fn chain_files(dir: &Path) -> Result<(usize, Vec<PathBuf>), String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tdnc"))
        .collect();
    names.sort();
    let total = names.len();
    // Names are `tenant-{id:016x}-{step:08}-{snapshot:016x}.tdnc`: the
    // last name of each tenant prefix is its newest link.
    let mut newest: Vec<PathBuf> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let last_of_tenant = names
            .get(i + 1)
            .is_none_or(|next| next.get(..23) != name.get(..23));
        if last_of_tenant {
            newest.push(dir.join(name));
        }
    }
    Ok((total, newest))
}

/// A server being driven through one round, phase by phase, so the
/// traced run can step several servers in lockstep.
pub struct Served<'p, E> {
    plan: &'p Plan,
    cfg: ServeConfig,
    dir: PathBuf,
    traced: bool,
    server: Server<E>,
    ledger: Ledger,
    setup_s: f64,
    publish_ns: Vec<u64>,
    flush_ns: u64,
    submit_ns: u64,
    query_ns: Vec<u64>,
    value_sum: u64,
    value_count: u64,
    timed_events: u64,
}

impl<'p, E: Engine> Served<'p, E> {
    /// Set-up: `Server::new` plus the warm-up ticks. `traced` adds a span
    /// around every `submit_batch` and times `load_checkpoint` from
    /// outside before recovery. `dir` must not hold checkpoint files yet;
    /// the round leaves its files there.
    pub fn start(plan: &'p Plan, dir: &Path, traced: bool) -> Result<Self, String> {
        // No cadence inside `flush`: the front-end checkpoints once, at the
        // crash, outside the timed calls.
        let cfg = ServeConfig::new(plan.shards, plan.tracker.clone()).with_checkpoints(dir, 0);
        let mut ledger = Ledger::default();
        let warmup: Vec<Vec<Batch>> = plan.ticks[..plan.warmup].to_vec();
        let start = Instant::now();
        let mut server = Server::<E>::new(cfg.clone()).map_err(fail("Server::new"))?;
        for batches in warmup {
            let events = events_of(&batches);
            let report = feed(&mut server, batches)?;
            ledger.absorb(events, &report);
        }
        let setup_s = start.elapsed().as_secs_f64();
        let timed = plan.crash_at - plan.warmup;
        Ok(Served {
            plan,
            cfg,
            dir: dir.to_path_buf(),
            traced,
            server,
            ledger,
            setup_s,
            publish_ns: Vec::with_capacity(timed),
            flush_ns: 0,
            submit_ns: 0,
            query_ns: Vec::with_capacity(timed * plan.tenants.len()),
            value_sum: 0,
            value_count: 0,
            timed_events: 0,
        })
    }

    /// Timed tick `i`: submit its batches, flush, then read every tenant.
    pub fn tick(&mut self, i: usize) -> Result<(), String> {
        let batches = self.plan.ticks[i].clone();
        let events = events_of(&batches);
        let t0 = Instant::now();
        for (tenant, t, edges) in batches {
            let s = self.traced.then(Instant::now);
            self.server
                .submit_batch(tenant, t, edges)
                .map_err(fail("submit_batch"))?;
            if let Some(s) = s {
                self.submit_ns += s.elapsed().as_nanos() as u64;
            }
        }
        let f0 = Instant::now();
        let report = self.server.flush().map_err(fail("flush"))?;
        let end = Instant::now();
        self.publish_ns.push((end - t0).as_nanos() as u64);
        self.flush_ns += (end - f0).as_nanos() as u64;
        self.ledger.absorb(events, &report);
        self.timed_events += events;
        for &tenant in &self.plan.tenants {
            let q = Instant::now();
            let snap = self.server.query(tenant);
            self.query_ns.push(q.elapsed().as_nanos() as u64);
            if let Some(snap) = std::hint::black_box(snap) {
                self.value_sum += snap.solution.value;
                self.value_count += 1;
            }
        }
        Ok(())
    }

    /// Crash, `Server::recover`, and a replay of the whole stream.
    pub fn finish(self) -> Result<Round, String> {
        let Served {
            plan,
            cfg,
            dir,
            traced,
            mut server,
            mut ledger,
            setup_s,
            publish_ns,
            flush_ns,
            submit_ns,
            query_ns,
            value_sum,
            value_count,
            timed_events,
        } = self;
        let state_bytes = server.approx_bytes();
        // A clean shutdown: checkpoint every tenant, outside the timed calls.
        let summary = server.checkpoint_all().map_err(fail("checkpoint_all"))?;
        if summary.failed > 0 {
            return Err(format!("checkpoint_all: {} saves failed", summary.failed));
        }
        let at_crash = fingerprints(&server);
        drop(server);
        // Write the chain files back before recovery is timed, so that the
        // kernel's writeback does not compete with the reads.
        let _ = std::process::Command::new("sync").status();
        let (files_on_disk, newest) = chain_files(&dir)?;
        let mut restore_s = 0.0;
        if traced {
            for path in &newest {
                let r = Instant::now();
                let restored = tdn_persist::load_checkpoint::<E>(path, &plan.tracker)
                    .map_err(|e| format!("load_checkpoint {}: {e}", path.display()))?;
                restore_s += r.elapsed().as_secs_f64();
                drop(std::hint::black_box(restored));
            }
        }

        let r0 = Instant::now();
        let (mut server, recovery) = Server::<E>::recover(cfg).map_err(fail("Server::recover"))?;
        let recover_s = r0.elapsed().as_secs_f64();
        if let Some((tenant, why)) = recovery.quarantined.first() {
            return Err(format!("recovery quarantined tenant {tenant}: {why}"));
        }
        let (mut replay_ns, mut replay_events, mut skipped_batches) = (0u64, 0u64, 0u64);
        for tick in &plan.ticks {
            let batches = tick.clone();
            let events = events_of(&batches);
            let t0 = Instant::now();
            let report = feed(&mut server, batches)?;
            replay_ns += t0.elapsed().as_nanos() as u64;
            ledger.absorb(events, &report);
            replay_events += events;
            skipped_batches += report.skipped;
        }
        let after_replay = fingerprints(&server);

        Ok(Round {
            setup_s,
            publish_ns,
            flush_ns,
            submit_ns,
            query_ns,
            value_sum,
            value_count,
            timed_events,
            ledger,
            state_bytes,
            files_on_disk,
            restore_s,
            recover_s,
            replay_s: replay_ns as f64 * 1e-9,
            replay_events,
            skipped_batches,
            at_crash,
            after_replay,
        })
    }
}

/// One whole round on its own.
pub fn round<E: Engine>(plan: &Plan, dir: &Path, traced: bool) -> Result<Round, String> {
    let mut served = Served::<E>::start(plan, dir, traced)?;
    for i in plan.warmup..plan.crash_at {
        served.tick(i)?;
    }
    served.finish()
}
