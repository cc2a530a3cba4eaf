//! Golden regression fixtures: quick-scale Table I statistics and
//! per-step tracker solutions, checked into `tests/golden/`.
//!
//! These pin today's exact outputs — the same numbers the incremental
//! spread-maintenance engine promises never to change. Any drift (a graph
//! refactor, a sieve tweak, an engine bug) fails with a readable
//! line-level diff instead of a silent behaviour change. Regenerate
//! deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_outputs
//! ```
//! and review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use tdn::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the checked-in fixture, printing a readable
/// diff (first mismatching line with context) on drift. `UPDATE_GOLDEN=1`
/// rewrites the fixture instead.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("updated golden fixture {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test golden_outputs",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    let first_diff = exp_lines
        .iter()
        .zip(&act_lines)
        .position(|(e, a)| e != a)
        .unwrap_or(exp_lines.len().min(act_lines.len()));
    let lo = first_diff.saturating_sub(3);
    let hi = (first_diff + 4).min(exp_lines.len().max(act_lines.len()));
    let mut report = format!(
        "golden fixture {} drifted (expected {} lines, got {}); first difference at line {}:\n",
        name,
        exp_lines.len(),
        act_lines.len(),
        first_diff + 1
    );
    for i in lo..hi {
        match (exp_lines.get(i), act_lines.get(i)) {
            (Some(e), Some(a)) if e == a => {
                let _ = writeln!(report, "      {:>4} | {e}", i + 1);
            }
            (e, a) => {
                if let Some(e) = e {
                    let _ = writeln!(report, "    - {:>4} | {e}", i + 1);
                }
                if let Some(a) = a {
                    let _ = writeln!(report, "    + {:>4} | {a}", i + 1);
                }
            }
        }
    }
    report.push_str(
        "if this change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_outputs and review the fixture diff",
    );
    panic!("{report}");
}

/// The Table I statistics scan, formatted exactly like `table1.csv`.
fn table1_actual() -> String {
    let mut out = String::from(
        "dataset,nodes,src_nodes,dst_nodes,interactions,distinct_pairs,\
         paper_nodes,paper_interactions\n",
    );
    for d in Dataset::ALL {
        let stats = tdn_streams::dataset_stats(d.stream(42), d.table1_events());
        let (paper_nodes, paper_inter) = d.paper_stats();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{paper_nodes},{paper_inter}",
            d.slug(),
            stats.nodes,
            stats.src_nodes,
            stats.dst_nodes,
            stats.interactions,
            stats.distinct_pairs,
        );
    }
    out
}

#[test]
fn table1_statistics_match_golden() {
    assert_matches_golden("table1_quick.csv", &table1_actual());
}

/// Fixed seeded workload: bursty edges over a reused universe with mixed
/// lifetimes — enough to exercise expiry, re-activation, and every engine
/// classification.
fn golden_schedule() -> Vec<(Time, Vec<TimedEdge>)> {
    let mut state = 0x601D_5EED_u64 ^ 0xA5A5_A5A5;
    let mut rnd = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % m
    };
    (0..25u64)
        .map(|t| {
            let batch: Vec<TimedEdge> = (0..rnd(6))
                .filter_map(|_| {
                    let (u, v) = (rnd(20) as u32, rnd(30) as u32);
                    (u != v).then(|| TimedEdge::new(u, v, 1 + rnd(9) as Lifetime))
                })
                .collect();
            (t, batch)
        })
        .collect()
}

fn solutions_actual() -> String {
    let cfg = TrackerConfig::new(3, 0.2, 8);
    let schedule = golden_schedule();
    let mut out = String::new();
    let mut run = |label: &str, tracker: &mut dyn InfluenceTracker| {
        for (t, batch) in &schedule {
            let sol = tracker.step(*t, batch);
            let seeds: Vec<u32> = sol.seeds.iter().map(|s| s.0).collect();
            let _ = writeln!(
                out,
                "{label} t={t} value={} seeds={seeds:?} calls={}",
                sol.value,
                tracker.oracle_calls()
            );
        }
    };
    run("SieveADN", &mut SieveAdnTracker::new(&cfg));
    run("BasicReduction", &mut BasicReduction::new(&cfg));
    run("HistApprox", &mut HistApprox::new(&cfg));
    run(
        "HistApprox+refeed",
        &mut HistApprox::new(&TrackerConfig::new(2, 0.15, 10)).with_refeed(),
    );
    out
}

#[test]
fn tracker_solutions_match_golden() {
    assert_matches_golden("tracker_solutions.txt", &solutions_actual());
}

/// Each tracker's final incremental-engine tallies after the golden
/// schedule. Solutions and oracle calls cannot see *how* a spread was
/// served, so these counters are what pins the engine itself: a dirty set
/// marked too wide (or a delta patch that misses a node) leaves every
/// answer intact but moves `cache_hits`/`cache_misses` and the
/// patched/rebuilt split.
fn engine_tallies_actual() -> String {
    let cfg = TrackerConfig::new(3, 0.2, 8);
    let schedule = golden_schedule();
    let mut out = String::new();
    let mut line = |label: &str, s: SpreadStatsSnapshot| {
        let _ = writeln!(
            out,
            "{label} novel={} redundant={} sink_delta={} probe_exhausted={} \
             cache_hits={} cache_misses={} patched={} rebuilt={} \
             shed={}/{}/{}",
            s.novel_edges,
            s.redundant_edges,
            s.sink_delta_edges,
            s.probe_budget_exhausted,
            s.cache_hits,
            s.cache_misses,
            s.patched_batches,
            s.rebuilt_batches,
            s.shed_memo,
            s.shed_arena,
            s.shed_fallback,
        );
    };
    let mut sieve = SieveAdnTracker::new(&cfg);
    let mut basic = BasicReduction::new(&cfg);
    let mut hist = HistApprox::new(&cfg);
    let mut refeed = HistApprox::new(&TrackerConfig::new(2, 0.15, 10)).with_refeed();
    for (t, batch) in &schedule {
        sieve.step(*t, batch);
        basic.step(*t, batch);
        hist.step(*t, batch);
        refeed.step(*t, batch);
    }
    line("SieveADN", sieve.spread_stats());
    line("BasicReduction", basic.spread_stats());
    line("HistApprox", hist.spread_stats());
    line("HistApprox+refeed", refeed.spread_stats());
    out
}

#[test]
fn engine_tallies_match_golden() {
    assert_matches_golden("engine_tallies.txt", &engine_tallies_actual());
}

/// Sketch estimates on the Fig. 2 worked example (the paper's running
/// TDN: two batches at t = 0 and t = 1, lifetimes 1–3), pinned for both
/// maintenance paths of the RR-sketch pool:
///
/// * `[adn …]` — a sketch-mode SIEVEADN tracker (append-only instance
///   graph, pool grown by `absorb_batch` only);
/// * `[tdn …]` — a standalone pool riding the decaying `TdnGraph`
///   through t = 0..=3, with dirty-node tracking driving `apply_expiry`
///   (by t = 3 every edge has aged out and the pool must drain).
///
/// Each line pins a node's rounded estimate next to the exact reach
/// count, so a fixture diff reads as "estimate for node v drifted from
/// exact-by-n" rather than an opaque byte change.
fn sketch_estimates_actual() -> String {
    let params = SketchParams::new(0.25, 0.1, 66);
    let batch_t0 = [
        TimedEdge::new(1u32, 2u32, 1),
        TimedEdge::new(1u32, 3u32, 1),
        TimedEdge::new(1u32, 4u32, 2),
        TimedEdge::new(5u32, 3u32, 3),
        TimedEdge::new(6u32, 4u32, 1),
        TimedEdge::new(6u32, 7u32, 1),
    ];
    let batch_t1 = [
        TimedEdge::new(5u32, 2u32, 1),
        TimedEdge::new(7u32, 4u32, 2),
        TimedEdge::new(7u32, 6u32, 3),
    ];
    let mut out = format!(
        "# sketch estimates on the Fig. 2 worked example\n\
         # params: eps={} delta={} seed={} pool={}\n",
        params.epsilon(),
        params.delta(),
        params.seed,
        params.pool_size(),
    );
    let mut scratch = tdn::graph::ReachScratch::new();

    // ADN path: sketch-mode SIEVEADN over the append-only graph.
    let mut tracker = SieveAdnTracker::new(&TrackerConfig::new(2, 0.1, 100))
        .with_spread_mode(SpreadMode::Sketch(params));
    for (t, batch) in [(0u64, &batch_t0[..]), (1, &batch_t1[..])] {
        let sol = tracker.step(t, batch);
        let inst = tracker.instance();
        let pool = inst.sketch_pool().expect("sketch mode carries a pool");
        let _ = writeln!(
            out,
            "[adn t={t}] n={} value={} seeds={:?}",
            pool.universe_len(),
            sol.value,
            sol.seeds.iter().map(|s| s.0).collect::<Vec<_>>(),
        );
        let mut nodes: Vec<_> = pool.universe().to_vec();
        nodes.sort_unstable();
        for v in nodes {
            let exact = tdn::graph::reach_count(inst.graph(), v, &mut scratch);
            let _ = writeln!(
                out,
                "v={} est={} exact={exact}",
                v.0,
                pool.estimate_rounded(v),
            );
        }
    }

    // TDN path: the decaying graph, expiry driving pool invalidation.
    let mut g = tdn::graph::TdnGraph::new();
    g.set_dirty_tracking(true);
    let mut pool = SketchPool::new(params);
    for t in 0..=3u64 {
        g.advance_to(t);
        let dirty = g.take_dirty();
        pool.apply_expiry(&g, &dirty);
        let batch: &[TimedEdge] = match t {
            0 => &batch_t0,
            1 => &batch_t1,
            _ => &[],
        };
        let mut fresh = Vec::new();
        for e in batch {
            let before = g.edge_count();
            g.add_edge(e.src, e.dst, e.lifetime);
            if g.edge_count() > before {
                fresh.push((e.src, e.dst));
            }
        }
        g.take_dirty();
        pool.absorb_batch(&g, &fresh);
        let _ = writeln!(
            out,
            "[tdn t={t}] n={} live_edges={}",
            pool.universe_len(),
            g.edge_count(),
        );
        let mut nodes: Vec<_> = pool.universe().to_vec();
        nodes.sort_unstable();
        for v in nodes {
            let exact = tdn::graph::reach_count(&g, v, &mut scratch);
            let _ = writeln!(
                out,
                "v={} est={} exact={exact}",
                v.0,
                pool.estimate_rounded(v),
            );
        }
    }
    out
}

#[test]
fn sketch_estimates_match_golden() {
    assert_matches_golden("sketch_estimates.txt", &sketch_estimates_actual());
}

/// The fixtures were recorded on the full-recompute reference path's
/// outputs (which the engine is contractually bound to reproduce), so the
/// reference must match them too — this guards against regenerating the
/// fixtures from a drifted incremental path without noticing.
#[test]
fn full_recompute_reference_matches_the_same_golden() {
    let cfg = TrackerConfig::new(3, 0.2, 8);
    let schedule = golden_schedule();
    let mut incremental = HistApprox::new(&cfg);
    let mut reference = HistApprox::new(&cfg).with_spread_mode(SpreadMode::FullRecompute);
    for (t, batch) in &schedule {
        assert_eq!(
            incremental.step(*t, batch),
            reference.step(*t, batch),
            "t={t}"
        );
        assert_eq!(incremental.oracle_calls(), reference.oracle_calls());
    }
}
