//! Fuzz-style corrupt-input sweep for the chain restore path.
//!
//! A server restoring an untrusted checkpoint chain must never panic —
//! every truncation, bit flip, splice, or shuffle has to surface as a
//! typed [`PersistError`]. These tests feed systematically and
//! pseudo-randomly damaged chain files through [`restore_from_chain`]
//! and assert that the result is always an `Err`: a panic anywhere in the
//! envelope validation, section resolution, or tracker decode stack fails
//! the test harness itself. Two further sweeps reach past the envelope
//! checksum into the decoders: damaged sections re-sealed into a valid
//! container, and damaged flat payloads of the committed format-2
//! fixtures.
//!
//! The damage generator is a deterministic xorshift so failures
//! reproduce exactly; no wall-clock or OS randomness is involved.

use tdn_core::{
    BasicReduction, HistApprox, InfluenceTracker, RandomTracker, SieveAdnTracker, TrackerConfig,
};
use tdn_persist::manifest::{V2_PAYLOAD_OFFSET, V3_PAYLOAD_OFFSET};
use tdn_persist::{
    checkpoint_base_to_vec, checkpoint_delta_to_vec, checkpoint_to_vec, peek_manifest,
    restore_from_chain, Persist, PersistError, FORMAT_VERSION,
};
use tdn_streams::TimedEdge;

/// Deterministic xorshift64* for reproducible fuzz cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn batch_for(t: u64) -> Vec<TimedEdge> {
    vec![
        TimedEdge::new((t % 7) as u32, (9 + t % 13) as u32, 1 + (t % 5) as u32),
        TimedEdge::new((t % 4) as u32, (5 + t % 11) as u32, 2 + (t % 6) as u32),
    ]
}

/// A 3-link chain (delta → delta → base) for a SIEVEADN tracker.
fn sieve_chain() -> (TrackerConfig, Vec<Vec<u8>>) {
    let cfg = TrackerConfig::new(2, 0.2, 50);
    let mut t = SieveAdnTracker::new(&cfg);
    t.step(0, &batch_for(0));
    t.step(1, &batch_for(1));
    let (base, idx, base_id) = checkpoint_base_to_vec(&t, &cfg, 2);
    t.step(2, &batch_for(2));
    let (d1, idx, d1_id) = checkpoint_delta_to_vec(&t, &cfg, 3, &idx, base_id);
    t.step(3, &batch_for(3));
    let (d2, _, _) = checkpoint_delta_to_vec(&t, &cfg, 4, &idx, d1_id);
    (cfg, vec![d2, d1, base])
}

fn restore_sieve(links: &[Vec<u8>], cfg: &TrackerConfig) -> Result<(), PersistError> {
    let refs: Vec<&[u8]> = links.iter().map(Vec::as_slice).collect();
    restore_from_chain::<SieveAdnTracker>(&refs, cfg).map(|_| ())
}

#[test]
fn pristine_chain_restores() {
    // Control: the undamaged chain must restore, or every assertion
    // below is vacuous.
    let (cfg, links) = sieve_chain();
    assert!(restore_sieve(&links, &cfg).is_ok());
}

#[test]
fn every_single_link_truncation_is_a_typed_error() {
    let (cfg, links) = sieve_chain();
    for li in 0..links.len() {
        for cut in 0..links[li].len() {
            let mut damaged = links.clone();
            damaged[li] = damaged[li][..cut].to_vec();
            assert!(
                restore_sieve(&damaged, &cfg).is_err(),
                "link {li} truncated to {cut}/{} bytes restored",
                links[li].len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    // Exhaustive over every byte of every link: the envelope checksum
    // covers header + payload, so no flipped byte may survive.
    let (cfg, links) = sieve_chain();
    for li in 0..links.len() {
        for at in 0..links[li].len() {
            let mut damaged = links.clone();
            damaged[li][at] ^= 0xA7;
            assert!(
                restore_sieve(&damaged, &cfg).is_err(),
                "flip at link {li} byte {at} restored"
            );
        }
    }
}

#[test]
fn random_multi_site_damage_never_panics() {
    // 600 seeded cases, each flipping 2–9 bytes and possibly truncating
    // one link — the combinations single-site sweeps cannot reach.
    let (cfg, links) = sieve_chain();
    let mut rng = Rng(0x00DE_FACE_D05E_ED01);
    for case in 0..600u32 {
        let mut damaged = links.clone();
        let flips = 2 + rng.below(8);
        for _ in 0..flips {
            let li = rng.below(damaged.len());
            if damaged[li].is_empty() {
                continue;
            }
            let at = rng.below(damaged[li].len());
            damaged[li][at] ^= (1 << rng.below(8)) as u8;
        }
        if rng.below(4) == 0 {
            let li = rng.below(damaged.len());
            let cut = rng.below(damaged[li].len() + 1);
            damaged[li].truncate(cut);
        }
        // Damaged chains must error; the astronomically unlikely case
        // where the flips cancel out would restore — treat an Ok as
        // suspicious and verify it is byte-identical to the original.
        if restore_sieve(&damaged, &cfg).is_ok() {
            assert_eq!(damaged, links, "case {case}: damaged chain restored");
        }
    }
}

#[test]
fn shuffled_spliced_and_foreign_chains_error() {
    let (cfg, links) = sieve_chain();
    let (d2, d1, base) = (&links[0], &links[1], &links[2]);

    // Reversed order: base first is not a valid tip-first chain.
    assert!(restore_sieve(&[base.clone(), d1.clone(), d2.clone()], &cfg).is_err());
    // Duplicated link: a cycle, not an infinite loop.
    assert!(restore_sieve(&[d2.clone(), d1.clone(), d1.clone(), base.clone()], &cfg).is_err());
    // Missing middle link breaks parent linkage.
    assert!(restore_sieve(&[d2.clone(), base.clone()], &cfg).is_err());
    // Empty chain and empty links.
    assert!(restore_sieve(&[], &cfg).is_err());
    assert!(restore_sieve(&[Vec::new()], &cfg).is_err());
    assert!(restore_sieve(&[d2.clone(), Vec::new(), base.clone()], &cfg).is_err());

    // Splicing a *different tracker's* base under our deltas must fail
    // the kind check, not decode garbage.
    let hcfg = TrackerConfig::new(2, 0.2, 50);
    let mut h = HistApprox::new(&hcfg);
    h.step(0, &batch_for(0));
    let (hbase, _, _) = checkpoint_base_to_vec(&h, &hcfg, 1);
    assert!(restore_sieve(&[d2.clone(), d1.clone(), hbase.clone()], &cfg).is_err());
    // And a wholly foreign blob anywhere in the chain.
    let foreign = b"GIF89a definitely not a checkpoint".to_vec();
    assert!(restore_sieve(&[foreign.clone(), d1.clone(), base.clone()], &cfg).is_err());
    assert!(restore_sieve(&[d2.clone(), foreign, base.clone()], &cfg).is_err());
}

// ---------------------------------------------------------------------------
// Decoder sweeps
//
// The envelope checksum rejects every damaged file above before a tracker
// decoder sees a byte. The sweeps below get past it, so the decoders
// themselves must turn damage into typed errors: a truncated section or
// flat payload must fail, a flipped byte may decode or fail, and nothing
// may panic.
// ---------------------------------------------------------------------------

/// Seeded byte flips per damaged section or payload.
const FLIPS: usize = 64;

/// Calls `f` with every truncation of `bytes` (`true`) and with `FLIPS`
/// seeded single-byte flips of it (`false`).
fn for_each_damage(bytes: &[u8], rng: &mut Rng, mut f: impl FnMut(&[u8], bool)) {
    for cut in 0..bytes.len() {
        f(&bytes[..cut], true);
    }
    if bytes.is_empty() {
        return;
    }
    for _ in 0..FLIPS {
        let mut damaged = bytes.to_vec();
        damaged[rng.below(bytes.len())] ^= 1 << rng.below(8);
        f(&damaged, false);
    }
}

/// Damages one section of a base checkpoint at a time, re-seals the
/// container (so every section checksum holds), and decodes it with the
/// tracker's own section decoder.
fn sweep_sections<T: Persist>(bytes: &[u8], rng: &mut Rng, label: &str) {
    let m = peek_manifest(bytes).expect("manifest parses");
    assert_eq!(m.format_version, FORMAT_VERSION);
    let payload = &bytes[V3_PAYLOAD_OFFSET..V3_PAYLOAD_OFFSET + m.payload_len as usize];
    let reader = codec::SectionReader::parse(payload).expect("container parses");
    let sections: Vec<(String, Vec<u8>)> = reader
        .toc()
        .entries()
        .iter()
        .map(|e| (e.name.clone(), reader.payload(&e.name).unwrap().to_vec()))
        .collect();
    let reseal = |target: &str, damaged: &[u8]| {
        let mut w = codec::SectionWriter::new();
        for (name, bytes) in &sections {
            let bytes = if name == target { damaged } else { bytes };
            w.put_section(name, bytes.to_vec());
        }
        codec::SectionMap::from_single(&w.finish()).expect("re-sealed container resolves")
    };
    assert!(
        T::read_sections(&reseal("", &[])).is_ok(),
        "{label}: pristine sections must decode"
    );
    for (name, original) in &sections {
        for_each_damage(original, rng, |damaged, truncated| {
            let res = T::read_sections(&reseal(name, damaged));
            assert!(
                !truncated || res.is_err(),
                "{label}: section {name:?} truncated to {}/{} bytes decoded",
                damaged.len(),
                original.len()
            );
        });
    }
}

#[test]
fn section_damage_reaches_every_tracker_decoder() {
    let cfg = TrackerConfig::new(2, 0.15, 6);
    let mut rng = Rng(0xBAD5_EED5_0F0F_0F0F);
    let feed = |t: &mut dyn InfluenceTracker| {
        for step in 0..4 {
            t.step(step, &batch_for(step));
        }
    };
    let mut s = SieveAdnTracker::new(&cfg);
    feed(&mut s);
    sweep_sections::<SieveAdnTracker>(&checkpoint_to_vec(&s, &cfg, 4), &mut rng, "sieve");
    let mut b = BasicReduction::new(&cfg);
    feed(&mut b);
    sweep_sections::<BasicReduction>(&checkpoint_to_vec(&b, &cfg, 4), &mut rng, "basic");
    let mut h = HistApprox::new(&cfg);
    feed(&mut h);
    sweep_sections::<HistApprox>(&checkpoint_to_vec(&h, &cfg, 4), &mut rng, "hist");
    let mut r = RandomTracker::new(&cfg, 7);
    feed(&mut r);
    sweep_sections::<RandomTracker>(&checkpoint_to_vec(&r, &cfg, 4), &mut rng, "random");
}

/// Feeds damaged copies of a committed format-2 fixture's flat payload to
/// the tracker's legacy decoder.
fn sweep_flat<T: Persist>(fixture: &str, rng: &mut Rng) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(fixture);
    let bytes = std::fs::read(&path).expect("golden fixture readable");
    let m = peek_manifest(&bytes).expect("manifest parses");
    assert_eq!(m.format_version, 2, "{fixture}");
    let payload = &bytes[V2_PAYLOAD_OFFSET..V2_PAYLOAD_OFFSET + m.payload_len as usize];
    let decode = |bytes: &[u8]| {
        let mut r = codec::Reader::new(bytes);
        T::read_legacy(&mut r).and_then(|_| r.finish())
    };
    assert!(
        decode(payload).is_ok(),
        "{fixture}: pristine payload must decode"
    );
    for_each_damage(payload, rng, |damaged, truncated| {
        let res = decode(damaged);
        assert!(
            !truncated || res.is_err(),
            "{fixture}: payload truncated to {}/{} bytes decoded",
            damaged.len(),
            payload.len()
        );
    });
}

#[test]
fn flat_payload_damage_reaches_the_legacy_decoders() {
    let mut rng = Rng(0x0F1A_7DEC_0DE5_5EED);
    sweep_flat::<SieveAdnTracker>("checkpoint_sieve_adn_incremental.tdnc", &mut rng);
    sweep_flat::<HistApprox>("checkpoint_hist_approx_incremental.tdnc", &mut rng);
    sweep_flat::<HistApprox>("checkpoint_hist_approx_full.tdnc", &mut rng);
    sweep_flat::<BasicReduction>("checkpoint_basic_reduction_incremental.tdnc", &mut rng);
}
