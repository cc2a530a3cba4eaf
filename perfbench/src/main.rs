//! The serve-path benchmark of the tdn workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <firehose_sieve|single_hist> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. The inputs are made from `--seed`
//! before anything is timed. A single front-end caller drives the public
//! `tdn-serve` API in a closed loop: it submits a tick's batches, calls
//! `flush`, then reads every tenant, on the same thread.
//!
//! * `--trace 0` repeats whole rounds (set-up, timed ingest, crash,
//!   recovery, replay) at one exec thread until `--seconds` have passed,
//!   and prints the end-to-end metrics.
//! * `--trace 1` times each layer from outside, at one exec thread: a
//!   direct replica (one engine per tenant) times `step`, `publish` and
//!   `CheckpointChain::save`; the served round adds spans around
//!   `submit_batch` and `load_checkpoint`. It prints the per-layer metrics,
//!   the layer sum against the served total, and the tracing overhead.
//!
//! The front-end checkpoints with `checkpoint_all` once, at the crash,
//! outside the timed calls: checkpoint writes on a virtual disk vary
//! several times over in latency from minute to minute, and would swamp
//! every end-to-end metric. Their cost is reported per layer.
//!
//! Both modes check that the served answers equal the replica's, before
//! the crash and after recovery and replay. The last line of standard
//! output is the result; the line before it is the run header. Both are
//! also written to `perfbench/out/`. A failed check still prints both,
//! with `"passed": false` and the reasons, and exits with code 1.

mod replica;
mod report;
mod served;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tdn_core::{HistApprox, SieveAdnTracker};

use report::{percentile, percentile_u64, Json, Metric};
use served::{Ledger, Round, Served};
use workload::{Engine, Plan};

/// Exec threads of the timed rounds. On the 2-vCPU VM this was built on,
/// two threads ran slower than one and turned hypervisor steal into
/// swings of up to 3x between runs (one thread: under 20%); the two-thread
/// path is measured by the traced run's `exec.parallel_speedup`.
const TIMED_THREADS: usize = 1;
/// Set-up is measured once per round; its median needs several.
const MIN_ROUNDS: usize = 3;
/// Keeps a run well inside its time limit on any `--seconds`.
const MAX_ROUNDS: usize = 50;
/// The traced run's attributed layers must cover the served total to
/// within this share of it; the rest is reported as `serve.overhead_s`.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A workload's run, monomorphised for its engine family.
type Runner = fn(&[Plan], &Args, &Path) -> Result<Outcome, String>;

/// What a run produced: its metrics, its event accounting, and every
/// correctness check that failed.
struct Outcome {
    metrics: Vec<Metric>,
    ledger: Ledger,
    rounds: usize,
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let (plans, run): (Vec<Plan>, Runner) = match args.workload.as_str() {
        "firehose_sieve" => (workload::firehose_sieve(seed), measure::<SieveAdnTracker>),
        "single_hist" => (workload::single_hist(seed), measure::<HistApprox>),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench/out");
    // Checkpoint chains of every round stay until the run ends, so that
    // deleting them cannot slow the disk under a later round.
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    let outcome = run(&plans, &args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let (outcome, error) = match outcome {
        Ok(outcome) => (outcome, None),
        Err(e) => (
            Outcome {
                metrics: Vec::new(),
                ledger: Ledger::default(),
                rounds: 0,
                problems: Vec::new(),
            },
            Some(e),
        ),
    };
    let mut problems = outcome.problems;
    problems.extend(error);
    let passed = problems.is_empty();

    let plan = &plans[0];
    let mut params: Vec<(String, Json)> = plan
        .params
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
        .collect();
    params.push(("streams".into(), Json::Int(plans.len() as u64)));
    params.push((
        "timed_events_per_round_stream0".into(),
        Json::Int(plan.events(plan.warmup..plan.crash_at)),
    ));
    let failed_ratio = outcome.ledger.unaccounted() as f64 / outcome.ledger.submitted.max(1) as f64;
    let header = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(args.seconds)),
        ("source", Json::Str(report::source_digest())),
        ("host_cores", Json::Int(report::host_cores() as u64)),
        (
            "exec_threads",
            Json::Str(if args.trace {
                "1, and 2 for the speedup leg".into()
            } else {
                TIMED_THREADS.to_string()
            }),
        ),
        ("rounds", Json::Int(outcome.rounds as u64)),
        ("params", Json::Obj(params)),
        ("submitted_events", Json::Int(outcome.ledger.submitted)),
        ("failed_ops_ratio", Json::Num(failed_ratio)),
        (
            "metrics",
            Json::Obj(outcome.metrics.iter().map(Metric::summary).collect()),
        ),
        ("passed", Json::Bool(passed)),
        (
            "reason",
            Json::Str(if passed {
                "all checks passed".into()
            } else {
                problems.join("; ")
            }),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(passed)),
        ("attempted", Json::Int(outcome.ledger.submitted.max(1))),
        ("failed", Json::Int(outcome.ledger.unaccounted())),
        (
            "metrics",
            Json::Obj(outcome.metrics.iter().map(Metric::entry).collect()),
        ),
    ]);
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        seed,
        u8::from(args.trace)
    ));
    let saved = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&file, format!("{header}\n{result}\n")));
    if let Err(e) = saved {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{header}");
    println!("{result}");
    if passed {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: FAILED: {}", problems.join("; "));
        ExitCode::from(1)
    }
}

/// The traced run follows the first stream only.
fn measure<E: Engine>(plans: &[Plan], args: &Args, dir: &Path) -> Result<Outcome, String> {
    if args.trace {
        traced::<E>(&plans[0], args.seconds, dir)
    } else {
        timed::<E>(plans, args.seconds, dir)
    }
}

/// Records a failed check when `ok` is false.
fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// The served answers of a round must equal the dedicated engines', at
/// the crash and after recovery and replay.
fn check_round(
    problems: &mut Vec<String>,
    label: &str,
    round: &Round,
    reference: &replica::Layers,
) {
    check(problems, round.at_crash == reference.at_crash, || {
        format!("{label}: served answers at the crash differ from the dedicated engines")
    });
    check(problems, round.after_replay == reference.at_end, || {
        format!("{label}: answers after recovery and replay differ from an uninterrupted run")
    });
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// End-to-end metrics: whole rounds at [`TIMED_THREADS`] until `seconds`
/// have passed, cycling through the streams, then one reference run per
/// stream for the correctness check.
fn timed<E: Engine>(plans: &[Plan], seconds: f64, dir: &Path) -> Result<Outcome, String> {
    exec::with_threads(TIMED_THREADS, || {
        let start = Instant::now();
        let mut rounds: Vec<Round> = Vec::new();
        let mut peak_rss = 0.0;
        while rounds.len() < MIN_ROUNDS.max(plans.len())
            || (start.elapsed().as_secs_f64() < seconds && rounds.len() < MAX_ROUNDS)
        {
            let plan = &plans[rounds.len() % plans.len()];
            let round_dir = dir.join(format!("round-{}", rounds.len()));
            rounds.push(served::round::<E>(plan, &round_dir, false)?);
            if rounds.len() == 1 {
                // After one round: later rounds only add kept samples, and
                // how many rounds fit depends on speed.
                peak_rss = report::peak_rss_mb();
            }
        }
        let references = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| replica::run::<E>(plan, &dir.join(format!("replica-{i}"))))
            .collect::<Result<Vec<_>, String>>()?;

        let mut problems = Vec::new();
        let mut ledger = Ledger::default();
        for (i, round) in rounds.iter().enumerate() {
            let reference = &references[i % plans.len()];
            check_round(&mut problems, &format!("round {i}"), round, reference);
            ledger.add(&round.ledger);
        }
        let value_count: u64 = rounds.iter().map(|r| r.value_count).sum();
        check(&mut problems, value_count > 0, || {
            "no read returned a snapshot".into()
        });

        let per = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        let publish_ns: Vec<u64> = rounds
            .iter()
            .flat_map(|r| r.publish_ns.iter().copied())
            .collect();
        let pooled_ns =
            |name, unit, samples: &[u64], q: f64, scale: f64, of: fn(&Round) -> &Vec<u64>| {
                Metric::pooled(
                    name,
                    unit,
                    percentile_u64(samples, q) * scale,
                    per(&|r| percentile_u64(of(r), q) * scale),
                )
            };
        // Events over wall time, summed over every round: unlike a median
        // of per-round rates, it moves smoothly when some rounds of a run
        // meet a slower host than others.
        let rate = |name, events: fn(&Round) -> u64, wall_s: fn(&Round) -> f64| {
            let total_events: u64 = rounds.iter().map(events).sum();
            let total_s: f64 = rounds.iter().map(wall_s).sum();
            Metric::pooled(
                name,
                "events/s",
                total_events as f64 / total_s,
                per(&|r| events(r) as f64 / wall_s(r)),
            )
        };
        let value_sum: u64 = rounds.iter().map(|r| r.value_sum).sum();
        let metrics = vec![
            rate(
                "ingest_events_per_s",
                |r| r.timed_events,
                |r| secs(r.served_ns()),
            ),
            pooled_ns("publish_p50_ms", "ms", &publish_ns, 0.50, 1e-6, |r| {
                &r.publish_ns
            }),
            pooled_ns("publish_p90_ms", "ms", &publish_ns, 0.90, 1e-6, |r| {
                &r.publish_ns
            }),
            Metric::median("recover_s", "s", per(&|r| r.recover_s)),
            rate("replay_events_per_s", |r| r.replay_events, |r| r.replay_s),
            Metric::median("setup_s", "s", per(&|r| r.setup_s)),
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: peak_rss,
                per_round: vec![peak_rss],
                how: "process high-water mark after the first round",
            },
            Metric::pooled(
                "solution_value_mean",
                "spread",
                value_sum as f64 / value_count.max(1) as f64,
                per(&|r| r.value_sum as f64 / r.value_count.max(1) as f64),
            ),
        ];
        Ok(Outcome {
            metrics,
            ledger,
            rounds: rounds.len(),
            problems,
        })
    })
}

/// One traced pass: the replica's layer times, the served round with
/// spans, the same round without spans, and the round at two threads.
struct Pass {
    layers: replica::Layers,
    spans: Round,
    plain: Round,
    two: Round,
}

impl Pass {
    /// Checkpoints run between flushes, outside the served total, so
    /// persist is not part of the sum.
    fn attributed_ns(&self) -> u64 {
        let l = &self.layers;
        self.spans.submit_ns + l.step_ns.iter().sum::<u64>() + l.publish_ns
    }

    /// Served total minus the attributed layers: the serve layer's own
    /// flush time (queueing, routing, snapshot bookkeeping).
    fn residual_s(&self) -> f64 {
        (self.spans.served_ns() as f64 - self.attributed_ns() as f64) * 1e-9
    }
}

/// Steps the replica and three servers in lockstep, tick by tick, so
/// that the comparisons between them see the same moment of the host.
fn traced_pass<E: Engine>(plan: &Plan, dir: &Path) -> Result<Pass, String> {
    let mut replica = replica::Replica::<E>::new(plan, &dir.join("replica"))?;
    replica.feed_until(plan.warmup)?;
    let one =
        |traced, name| exec::with_threads(1, || Served::<E>::start(plan, &dir.join(name), traced));
    let mut spans = one(true, "spans")?;
    let mut plain = one(false, "plain")?;
    let mut two = exec::with_threads(2, || Served::<E>::start(plan, &dir.join("two"), false))?;
    for i in plan.warmup..plan.crash_at {
        exec::with_threads(1, || {
            spans.tick(i)?;
            plain.tick(i)?;
            replica.feed_until(i + 1)
        })?;
        exec::with_threads(2, || two.tick(i))?;
    }
    Ok(Pass {
        layers: replica.finish()?,
        spans: exec::with_threads(1, || spans.finish())?,
        plain: exec::with_threads(1, || plain.finish())?,
        two: exec::with_threads(2, || two.finish())?,
    })
}

/// Per-layer metrics, timed from outside at one exec thread.
fn traced<E: Engine>(plan: &Plan, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty()
        || (start.elapsed().as_secs_f64() < seconds && passes.len() < MAX_ROUNDS)
    {
        passes.push(traced_pass::<E>(
            plan,
            &dir.join(format!("pass-{}", passes.len())),
        )?);
    }

    let mut problems = Vec::new();
    let mut ledger = Ledger::default();
    for (i, pass) in passes.iter().enumerate() {
        for (label, round) in [
            ("spans", &pass.spans),
            ("plain", &pass.plain),
            ("two threads", &pass.two),
        ] {
            check_round(
                &mut problems,
                &format!("pass {i} {label}"),
                round,
                &pass.layers,
            );
            ledger.add(&round.ledger);
        }
    }
    let per = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let residual_share = per(&|p| p.residual_s() / secs(p.spans.served_ns()));
    let median_share = percentile(&residual_share, 0.5);
    check(
        &mut problems,
        median_share.abs() <= LAYER_SUM_TOLERANCE,
        || {
            format!(
                "layer sum misses the served total by {:.1}% (tolerance {:.0}%)",
                median_share * 100.0,
                LAYER_SUM_TOLERANCE * 100.0
            )
        },
    );
    let timed_events = plan.events(plan.warmup..plan.crash_at) as f64;
    let count = |name, f: &dyn Fn(&Pass) -> f64| Metric::median(name, "count", per(f));
    let seconds_of = |name, f: &dyn Fn(&Pass) -> f64| Metric::median(name, "s", per(f));
    let metrics = vec![
        seconds_of("serve.submit_s", &|p| secs(p.spans.submit_ns)),
        seconds_of("serve.overhead_s", &|p| p.residual_s()),
        Metric::median(
            "serve.shard_skew",
            "ratio",
            per(&|p| {
                let ev = &p.layers.shard_events;
                let mean = ev.iter().sum::<u64>() as f64 / ev.len() as f64;
                ev.iter().copied().max().unwrap_or(0) as f64 / mean
            }),
        ),
        count("serve.skipped_batches", &|p| p.spans.skipped_batches as f64),
        Metric::median(
            "serve.query_p50_ns",
            "ns",
            per(&|p| percentile_u64(&p.spans.query_ns, 0.5)),
        ),
        Metric::median(
            "serve.query_p99_ns",
            "ns",
            per(&|p| percentile_u64(&p.spans.query_ns, 0.99)),
        ),
        seconds_of("core.step_s", &|p| secs(p.layers.step_ns.iter().sum())),
        Metric::median(
            "core.step_p50_us",
            "us",
            per(&|p| percentile_u64(&p.layers.step_ns, 0.5) * 1e-3),
        ),
        Metric::median(
            "core.step_p99_us",
            "us",
            per(&|p| percentile_u64(&p.layers.step_ns, 0.99) * 1e-3),
        ),
        count("core.oracle_calls", &|p| {
            p.layers.spread.oracle_calls as f64
        }),
        Metric::median(
            "core.oracle_calls_per_event",
            "calls/event",
            per(&|p| p.layers.spread.oracle_calls as f64 / timed_events),
        ),
        count("graph.cache_hits", &|p| p.layers.spread.cache_hits as f64),
        count("graph.cache_misses", &|p| {
            p.layers.spread.cache_misses as f64
        }),
        count("graph.patched_batches", &|p| {
            p.layers.spread.patched_batches as f64
        }),
        count("graph.rebuilt_batches", &|p| {
            p.layers.spread.rebuilt_batches as f64
        }),
        count("graph.bottom_up_sweeps", &|p| {
            p.layers.bottom_up_sweeps as f64
        }),
        seconds_of("graph.publish_s", &|p| secs(p.layers.publish_ns)),
        Metric::median(
            "graph.state_bytes",
            "bytes",
            per(&|p| p.spans.state_bytes as f64),
        ),
        seconds_of("persist.encode_s", &|p| secs(p.layers.encode_ns)),
        seconds_of("persist.io_s", &|p| secs(p.layers.io_ns)),
        Metric::median(
            "persist.bytes_written",
            "bytes",
            per(&|p| p.layers.bytes_written as f64),
        ),
        count("persist.base_saves", &|p| p.layers.base_saves as f64),
        count("persist.delta_saves", &|p| p.layers.delta_saves as f64),
        count("persist.files_on_disk", &|p| p.spans.files_on_disk as f64),
        seconds_of("persist.restore_s", &|p| p.spans.restore_s),
        Metric::median(
            "exec.parallel_speedup",
            "ratio",
            per(&|p| p.plain.flush_ns as f64 / p.two.flush_ns as f64),
        ),
        seconds_of("trace.served_total_s", &|p| secs(p.spans.served_ns())),
        seconds_of("trace.layer_sum_s", &|p| secs(p.attributed_ns())),
        Metric::median("trace.residual_share", "ratio", residual_share),
        Metric::median(
            "trace.overhead_ratio",
            "ratio",
            per(&|p| p.spans.served_ns() as f64 / p.plain.served_ns() as f64),
        ),
    ];
    Ok(Outcome {
        metrics,
        ledger,
        rounds: passes.len(),
        problems,
    })
}
