//! Golden checkpoint fixtures: `.tdnc` files written by older builds must
//! keep restoring cleanly, and the restored tracker must continue the
//! stream bit-identically to an uninterrupted run of today's code.
//!
//! Four fixtures are format 2 (a flat, monolithic payload, written before
//! the flat-graph-core refactor); `checkpoint_hist_approx_v3_state.tdnc`
//! is format 3 with the whole flat HistApprox state in one `"state"`
//! section, the layout format-3 builds wrote for every tracker but
//! SieveADN. Both layouts restore through the read-only legacy decoders
//! (`Persist::read_legacy`); no writer for either exists any more.
//!
//! The fixtures are frozen: nothing regenerates them, and CI fails when a
//! test run changes a byte under `tests/golden`.

use std::path::PathBuf;
use tdn::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Deterministic mini-stream: bursty batches over a small node universe
/// with short mixed lifetimes, so expiry, re-activation, redundant edges,
/// and new-sink deltas all occur before and after the cut.
fn batch_at(t: Time) -> Vec<TimedEdge> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (t.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut rnd = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    (0..2 + rnd(5))
        .map(|_| TimedEdge::new(rnd(14) as u32, rnd(14) as u32, 1 + rnd(9) as Lifetime))
        .filter(|e| e.src != e.dst)
        .collect()
}

const CUT: Time = 9;
const HORIZON: Time = 17;

fn cfg() -> TrackerConfig {
    TrackerConfig::new(3, 0.2, 8)
}

fn run_tail<T: InfluenceTracker>(tracker: &mut T, from: Time) -> (Vec<Solution>, u64) {
    let mut sols = Vec::new();
    for t in from..=HORIZON {
        sols.push(tracker.step(t, &batch_at(t)));
    }
    (sols, tracker.oracle_calls())
}

fn check_fixture<T, F>(name: &str, format_version: u32, make: F)
where
    T: InfluenceTracker + Persist,
    F: Fn() -> T,
{
    let path = fixture_path(name);
    let manifest = read_manifest(&path).expect("fixture manifest readable");
    assert_eq!(manifest.step, CUT, "{name}: fixture cut drifted");
    assert_eq!(
        manifest.format_version, format_version,
        "{name}: format drifted"
    );
    let (resume, mut warm): (u64, T) =
        load_checkpoint(&path, &cfg()).expect("pre-refactor checkpoint restores");
    assert_eq!(resume, CUT);
    // Continue the stream on the restored tracker and on a fresh
    // uninterrupted run; they must agree on every solution and on the
    // final oracle tally.
    let warm_result = run_tail(&mut warm, CUT);
    let mut fresh = make();
    for t in 0..CUT {
        fresh.step(t, &batch_at(t));
    }
    let fresh_result = run_tail(&mut fresh, CUT);
    assert_eq!(warm_result, fresh_result, "{name}: warm tail diverged");
}

#[test]
fn sieve_adn_incremental_fixture_restores() {
    check_fixture("checkpoint_sieve_adn_incremental.tdnc", 2, || {
        SieveAdnTracker::new(&cfg())
    });
}

#[test]
fn hist_approx_incremental_fixture_restores() {
    check_fixture("checkpoint_hist_approx_incremental.tdnc", 2, || {
        HistApprox::new(&cfg())
    });
}

#[test]
fn hist_approx_full_recompute_fixture_restores() {
    check_fixture("checkpoint_hist_approx_full.tdnc", 2, || {
        HistApprox::new(&cfg()).with_spread_mode(SpreadMode::FullRecompute)
    });
}

#[test]
fn basic_reduction_incremental_fixture_restores() {
    check_fixture("checkpoint_basic_reduction_incremental.tdnc", 2, || {
        BasicReduction::new(&cfg())
    });
}

/// Format 3 as HistApprox wrote it before it had sections of its own: the
/// whole flat state in a single `"state"` section.
#[test]
fn hist_approx_v3_state_fixture_restores() {
    let bytes = std::fs::read(fixture_path("checkpoint_hist_approx_v3_state.tdnc")).unwrap();
    let payload = &bytes[64..bytes.len() - 8];
    let toc = codec::SectionReader::parse(payload).expect("container parses");
    let names: Vec<&str> = toc
        .toc()
        .entries()
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(names, ["state"], "fixture must hold the one flat section");
    check_fixture("checkpoint_hist_approx_v3_state.tdnc", 3, || {
        HistApprox::new(&cfg())
    });
}
