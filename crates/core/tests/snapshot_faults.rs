//! Fault-injection suite for warm-start snapshots: every corrupted,
//! truncated, deleted or torn snapshot must degrade to a **cold start with a
//! logged reason** — never a panic, never silently wrong state — and the
//! encode/decode pair must be bit-exact (a load followed by a save
//! reproduces the snapshot byte for byte).

use chain2l_core::snapshot::{load, save, FORMAT_VERSION, MAGIC};
use chain2l_core::{Algorithm, Engine, ShardIdentity, SnapshotLoadOutcome, SnapshotRejectReason};
use chain2l_model::platform::scr;
use chain2l_model::{ResilienceCosts, Scenario, TaskChain, WeightPattern};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn paper(n: usize) -> Scenario {
    Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 25_000.0).unwrap()
}

fn chain(weights: Vec<f64>) -> Scenario {
    let platform = scr::hera();
    let costs = ResilienceCosts::paper_defaults(&platform);
    Scenario::new(TaskChain::from_weights(weights).unwrap(), platform, costs).unwrap()
}

fn temp_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chain2l-faults-{label}-{}.snap", std::process::id()))
}

/// A warmed engine whose snapshot exercises every section: cached solutions
/// for three algorithms plus retained multi-slice DP tables.
fn warmed_engine() -> Engine {
    let engine = Engine::new();
    engine.solve(&paper(6), Algorithm::SingleLevel);
    engine.solve(&paper(9), Algorithm::TwoLevelPartial);
    engine.solve(&chain(vec![400.0; 10]), Algorithm::TwoLevel);
    engine
}

/// Loads `bytes` as a snapshot into a fresh engine; returns the outcome and
/// asserts the engine still solves afterwards (the "no panic, still
/// serves" contract).
fn load_bytes(label: &str, bytes: &[u8]) -> SnapshotLoadOutcome {
    let path = temp_path(label);
    fs::write(&path, bytes).unwrap();
    let engine = Engine::new();
    let report = load(&engine, &path, ShardIdentity::standalone());
    assert_eq!(engine.stats().snapshot.load, report.outcome, "outcome not recorded in stats");
    assert!(
        engine.solve(&paper(4), Algorithm::TwoLevel).expected_makespan.is_finite(),
        "engine must keep serving after a {label} load"
    );
    let _ = fs::remove_file(&path);
    report.outcome
}

/// Byte offsets of every structural boundary in the snapshot: after the
/// magic, version and section count, and after each section's tag, length,
/// CRC and payload.  Re-derives the framing independently of the encoder.
fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    assert_eq!(&bytes[..8], &MAGIC);
    let mut boundaries = vec![8, 12, 16];
    let mut pos = 16usize;
    for _ in 0..3 {
        pos += 4; // tag
        boundaries.push(pos);
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        boundaries.push(pos);
        pos += 4; // crc
        boundaries.push(pos);
        pos += len;
        boundaries.push(pos);
    }
    assert_eq!(pos, bytes.len(), "framing walk must land exactly on the file end");
    boundaries
}

#[test]
fn truncation_at_every_section_boundary_recovers_cold() {
    let path = temp_path("source");
    save(&warmed_engine(), &path, ShardIdentity::standalone()).unwrap();
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(&path);

    let mut cuts: Vec<usize> = vec![0];
    for b in section_boundaries(&bytes) {
        // At the boundary, one byte short of it, and one byte past it.
        cuts.extend([b.saturating_sub(1), b, (b + 1).min(bytes.len())]);
    }
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        if cut == bytes.len() {
            continue; // not a truncation
        }
        let outcome = load_bytes("truncate", &bytes[..cut]);
        assert!(
            matches!(outcome, SnapshotLoadOutcome::Rejected(_)),
            "truncation at byte {cut}/{} must reject, got {outcome}",
            bytes.len()
        );
    }
    // The untruncated bytes still load, so the cuts above really were the
    // only thing wrong with the file.
    assert_eq!(load_bytes("untruncated", &bytes), SnapshotLoadOutcome::Loaded);
}

#[test]
fn every_sampled_bit_flip_is_rejected() {
    let path = temp_path("flip-source");
    save(&warmed_engine(), &path, ShardIdentity::standalone()).unwrap();
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(&path);

    // Deterministic LCG sampling of (byte, bit) positions: the framing is
    // fully load-bearing and every payload byte is under a CRC, so *any*
    // single-bit flip must reject.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut flips = 0;
    while flips < 192 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let byte = (state >> 33) as usize % bytes.len();
        let bit = (state >> 29) as u32 & 7;
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 1 << bit;
        let outcome = load_bytes("bitflip", &corrupt);
        assert!(
            matches!(outcome, SnapshotLoadOutcome::Rejected(_)),
            "bit {bit} of byte {byte} flipped: must reject, got {outcome}"
        );
        flips += 1;
    }
}

#[test]
fn deleting_the_snapshot_mid_cycle_falls_back_cold_then_recovers() {
    let path = temp_path("delete");
    let engine = warmed_engine();
    save(&engine, &path, ShardIdentity::standalone()).unwrap();
    fs::remove_file(&path).unwrap();

    // Boot with the file gone: clean cold start, not an error.
    let cold = Engine::new();
    let report = load(&cold, &path, ShardIdentity::standalone());
    assert_eq!(report.outcome, SnapshotLoadOutcome::Absent, "{}", report.detail);
    cold.solve(&paper(5), Algorithm::TwoLevel);

    // The next snapshot cycle repairs persistence on its own.
    save(&cold, &path, ShardIdentity::standalone()).unwrap();
    let warm = Engine::new();
    let report = load(&warm, &path, ShardIdentity::standalone());
    assert_eq!(report.outcome, SnapshotLoadOutcome::Loaded, "{}", report.detail);
    let _ = fs::remove_file(&path);
}

#[test]
fn empty_garbage_and_mislabeled_files_reject_with_the_right_reason() {
    assert_eq!(
        load_bytes("empty", b""),
        SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Magic)
    );
    assert_eq!(
        load_bytes("garbage", &[0xAB; 512]),
        SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Magic)
    );
    // Valid magic, hostile remainder.
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0xFF; 64]);
    assert!(matches!(load_bytes("post-magic-garbage", &bytes), SnapshotLoadOutcome::Rejected(_)));
    // Valid magic, past (format v1) or future version: must reject as a
    // version mismatch so the operator knows why the boot was cold.
    for version in [1, FORMAT_VERSION + 1] {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            load_bytes("other-version", &bytes),
            SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Version),
            "format v{version}"
        );
    }
}

#[test]
fn stale_tmp_file_from_a_torn_write_is_inert() {
    let path = temp_path("torn");
    let tmp = temp_path("torn").with_extension("snap.tmp");
    let engine = warmed_engine();
    save(&engine, &path, ShardIdentity::standalone()).unwrap();
    // Simulate a crash mid-write: a half-written temp file next to the
    // (complete) previous snapshot.
    fs::write(&tmp, [0x00; 100]).unwrap();

    let warm = Engine::new();
    let report = load(&warm, &path, ShardIdentity::standalone());
    assert_eq!(report.outcome, SnapshotLoadOutcome::Loaded, "{}", report.detail);

    // The next successful save replaces both atomically.
    save(&warm, &path, ShardIdentity::standalone()).unwrap();
    let again = Engine::new();
    assert_eq!(
        load(&again, &path, ShardIdentity::standalone()).outcome,
        SnapshotLoadOutcome::Loaded
    );
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&tmp);
}

proptest! {
    /// Bit-exactness pin: `save → load → save` reproduces the snapshot byte
    /// for byte (cache order, table planes, counters — everything), and the
    /// warm engine answers bit-identically to a cold solve.
    #[test]
    fn snapshot_round_trip_is_byte_identical(
        weights in proptest::collection::vec(1.0f64..5_000.0, 1..12),
        extra in proptest::collection::vec(1.0f64..5_000.0, 1..6),
    ) {
        let first = temp_path("prop-first");
        let second = temp_path("prop-second");
        let scenario = chain(weights.clone());
        let mut extended_weights = weights;
        extended_weights.extend_from_slice(&extra);
        let extended = chain(extended_weights);

        let engine = Engine::new();
        engine.solve(&scenario, Algorithm::TwoLevel);
        engine.solve(&extended, Algorithm::TwoLevel);
        save(&engine, &first, ShardIdentity::standalone()).unwrap();

        let restored = Engine::new();
        let report = load(&restored, &first, ShardIdentity::standalone());
        prop_assert_eq!(report.outcome, SnapshotLoadOutcome::Loaded);
        save(&restored, &second, ShardIdentity::standalone()).unwrap();
        let a = fs::read(&first).unwrap();
        let b = fs::read(&second).unwrap();
        prop_assert_eq!(a, b, "save(load(snapshot)) must be byte-identical");

        let warm = restored.solve(&extended, Algorithm::TwoLevel);
        let cold = chain2l_core::optimize(&extended, Algorithm::TwoLevel);
        prop_assert_eq!(warm.expected_makespan.to_bits(), cold.expected_makespan.to_bits());
        prop_assert_eq!(&warm.schedule, &cold.schedule);
        let _ = fs::remove_file(&first);
        let _ = fs::remove_file(&second);
    }
}
