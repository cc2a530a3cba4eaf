//! Parallel-scaling experiment: HISTAPPROX stream-processing throughput
//! (edges/sec) versus execution-engine thread count on one fixed workload.
//!
//! This is the perf-trajectory anchor for the parallel execution engine:
//! every run replays the *identical* prepared stream at each thread count,
//! asserts the determinism invariant (bit-identical per-step values and
//! oracle-call tallies), and emits machine-readable
//! `BENCH_throughput.json` next to the CSVs so successive commits can be
//! compared. Speedup is physically bounded by the host's core count — on a
//! single-core container every setting clusters around 1×, which the JSON
//! records honestly via `available_parallelism`.

use crate::checks::ensure;
use crate::driver::{run_tracker, PreparedStream, RunLog};
use crate::report::{f, latency_cells_ms, print_table};
use crate::scale::Scale;
use std::io::Write;
use std::path::Path;
use tdn_core::{HistApprox, TrackerConfig};
use tdn_streams::Dataset;

const EPS: f64 = 0.3;
const P: f64 = 0.001;
const K: usize = 10;
const L: u32 = 10_000;
/// Ticks coalesced per arrival batch: synthetic streams emit only a few
/// interactions per tick, while the parallel phases feed on batch-sized
/// independent work — batched arrival is the serving-scale shape.
const BATCH_TICKS: usize = 16;

/// Thread counts swept (1 must come first: it is the speedup baseline).
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Speedup floor the best thread count must clear when the gate enforces.
pub const MIN_SPEEDUP: f64 = 1.5;

/// Decision of the throughput speedup gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpeedupGate {
    /// Assert the [`MIN_SPEEDUP`] floor.
    Enforce,
    /// Skip the assertion, loudly, with this machine-readable reason.
    Skip(String),
}

/// Decides whether the >= [`MIN_SPEEDUP`] assertion runs.
///
/// Pure so the policy is unit-testable: hosts with >= 4 visible cores
/// always enforce; smaller hosts skip unless `force` (the
/// `TDN_BENCH_FORCE_SPEEDUP_CHECK=1` env override) insists — e.g. a CI
/// runner whose cgroup hides cores from `available_parallelism` but can
/// still physically scale.
pub fn speedup_gate(cores: usize, force: bool) -> SpeedupGate {
    if cores >= 4 || force {
        SpeedupGate::Enforce
    } else {
        SpeedupGate::Skip(format!(
            "speedup assertion skipped: host has {cores} core(s), needs >= 4 \
             to make >= {MIN_SPEEDUP}x physically satisfiable \
             (set TDN_BENCH_FORCE_SPEEDUP_CHECK=1 to enforce anyway)"
        ))
    }
}

/// One thread-count measurement.
pub struct ScalingPoint {
    /// Engine thread count for this run.
    pub threads: usize,
    /// The full run log (throughput, latency distribution, calls).
    pub log: RunLog,
}

/// Runs the sweep: same stream, fresh tracker per thread count.
pub fn sweep(scale: &Scale) -> Vec<ScalingPoint> {
    let stream =
        PreparedStream::geometric(Dataset::TwitterHiggs, scale.seed, P, L, scale.steps_main)
            .coalesce(BATCH_TICKS);
    // Discarded warm-up run: the first measured run must not absorb the
    // one-time page-fault/allocator costs, or the serial baseline looks
    // artificially slow and "speedup" appears even on one core.
    exec::with_threads(1, || {
        let mut tracker = HistApprox::new(&TrackerConfig::new(K, EPS, L));
        run_tracker(&mut tracker, &stream)
    });
    THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let cfg = TrackerConfig::new(K, EPS, L);
            let log = exec::with_threads(threads, || {
                let mut tracker = HistApprox::new(&cfg);
                run_tracker(&mut tracker, &stream)
            });
            ScalingPoint { threads, log }
        })
        .collect()
}

/// Escapes nothing (all emitted strings are identifiers) but keeps JSON
/// assembly in one place: one `{...}` object per scaling point.
fn json_point(p: &ScalingPoint) -> String {
    format!(
        "    {{\"threads\": {}, \"edges_per_sec\": {}, \"wall_secs\": {}, \
         \"p50_step_ms\": {}, \"p99_step_ms\": {}, \"oracle_calls\": {}, \"mean_value\": {}}}",
        p.threads,
        f(p.log.throughput()),
        f(p.log.wall_secs),
        f(p.log.step_latency_secs(0.5) * 1e3),
        f(p.log.step_latency_secs(0.99) * 1e3),
        p.log.total_calls(),
        f(p.log.mean_value()),
    )
}

/// Runs the scaling sweep, checks determinism and the speedup gate,
/// writes `BENCH_throughput.json` (also when a check fails, with its
/// reason), prints the summary table, and then fails on a failed check.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    let points = sweep(scale);
    let base = &points[0];
    // The determinism invariant is part of the experiment: a speedup that
    // changes answers would be measuring a different algorithm.
    let deterministic = points
        .iter()
        .all(|p| p.log.values == base.log.values && p.log.total_calls() == base.log.total_calls());
    let base_tp = base.log.throughput();
    let best_speedup = points
        .iter()
        .map(|p| p.log.throughput() / base_tp)
        .fold(f64::NAN, f64::max);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Enforce the scaling half of the acceptance criterion wherever it is
    // physically satisfiable: a host with >= 4 cores must show >= 1.5x at
    // the best thread count, or parallel scaling has regressed. Smaller
    // hosts (e.g. 1-core CI containers) can only verify determinism — but
    // the skip must be loud and machine-readable, not silent: a reader of
    // BENCH_throughput.json has to be able to tell "passed" from "never
    // checked". `TDN_BENCH_FORCE_SPEEDUP_CHECK=1` overrides the core
    // heuristic for hosts that under-report parallelism (cgroup limits,
    // VMs), so the assertion itself stays exercisable everywhere.
    let force = std::env::var("TDN_BENCH_FORCE_SPEEDUP_CHECK").is_ok_and(|v| v == "1");
    let gate = speedup_gate(cores, force);
    let failure = if !deterministic {
        Some("parallel HISTAPPROX diverged from the serial run".to_string())
    } else if gate == SpeedupGate::Enforce && (best_speedup.is_nan() || best_speedup < MIN_SPEEDUP)
    {
        Some(format!(
            "parallel scaling regressed: best speedup {best_speedup:.2}x on a {cores}-core host"
        ))
    } else {
        None
    };
    let skipped_reason = match gate {
        SpeedupGate::Enforce => None,
        SpeedupGate::Skip(reason) => {
            eprintln!("warning: {reason}");
            Some(reason)
        }
    };

    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_throughput.json");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "{{")?;
    writeln!(out, "  \"experiment\": \"throughput_scaling\",")?;
    writeln!(out, "  \"tracker\": \"HistApprox\",")?;
    writeln!(
        out,
        "  \"workload\": {{\"dataset\": \"{}\", \"steps\": {}, \"edges\": {}, \
         \"k\": {K}, \"eps\": {EPS}, \"max_lifetime\": {L}, \"geo_p\": {P}, \"seed\": {}}},",
        Dataset::TwitterHiggs.slug(),
        base.log.values.len(),
        base.log.edges,
        scale.seed,
    )?;
    writeln!(out, "  \"host_cores\": {cores},")?;
    writeln!(out, "  \"deterministic\": {deterministic},")?;
    writeln!(out, "  \"best_speedup\": {},", f(best_speedup))?;
    writeln!(out, "  \"passed\": {},", failure.is_none())?;
    for (key, text) in [("reason", &failure), ("skipped_reason", &skipped_reason)] {
        match text {
            Some(text) => writeln!(out, "  \"{key}\": \"{text}\",")?,
            None => writeln!(out, "  \"{key}\": null,")?,
        }
    }
    writeln!(out, "  \"runs\": [")?;
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        writeln!(out, "{}{sep}", json_point(p))?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    out.flush()?;

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let [p50, p99] = latency_cells_ms(&p.log.step_secs);
            vec![
                p.threads.to_string(),
                format!("{:.0}", p.log.throughput()),
                f(p.log.throughput() / base_tp),
                p50,
                p99,
                p.log.total_calls().to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Throughput scaling on {cores}-core host (HISTAPPROX, identical answers)"),
        &[
            "threads",
            "edges/s",
            "speedup",
            "p50 ms",
            "p99 ms",
            "oracle calls",
        ],
        &rows,
    );
    println!("wrote {}", path.display());
    match failure {
        Some(reason) => ensure(false, reason),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::{speedup_gate, SpeedupGate};

    #[test]
    fn big_hosts_always_enforce() {
        assert_eq!(speedup_gate(4, false), SpeedupGate::Enforce);
        assert_eq!(speedup_gate(64, false), SpeedupGate::Enforce);
        // The override is a no-op where the gate already enforces.
        assert_eq!(speedup_gate(4, true), SpeedupGate::Enforce);
    }

    #[test]
    fn force_override_enforces_on_small_hosts() {
        assert_eq!(speedup_gate(1, true), SpeedupGate::Enforce);
        assert_eq!(speedup_gate(2, true), SpeedupGate::Enforce);
    }

    #[test]
    fn small_host_skip_is_loud_and_names_the_override() {
        for cores in [1usize, 2, 3] {
            match speedup_gate(cores, false) {
                SpeedupGate::Skip(reason) => {
                    assert!(reason.contains(&format!("{cores} core")), "{reason}");
                    assert!(reason.contains("TDN_BENCH_FORCE_SPEEDUP_CHECK"), "{reason}");
                }
                SpeedupGate::Enforce => panic!("{cores}-core host must skip without the override"),
            }
        }
    }
}
