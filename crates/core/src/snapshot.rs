//! Warm-start persistence: versioned, checksummed engine snapshots.
//!
//! A snapshot captures everything an [`Engine`] has learned — the settled
//! entries of its [`SolutionCache`](crate::SolutionCache) and the retained
//! SoA table planes of every idle context — so a restarted daemon serves its
//! first request warm instead of re-running every dynamic program cold.
//!
//! **Format** (all integers little-endian, all `f64`s stored as raw IEEE-754
//! bit patterns, so round-trips are bit-exact by construction):
//!
//! ```text
//! magic   8 B  "C2LSNAPS"
//! version u32  FORMAT_VERSION
//! count   u32  number of sections (always 3)
//! 3 × section, in fixed tag order (1 header, 2 cache, 3 contexts):
//!   tag u32 · payload_len u64 · crc32 u32 · payload
//! ```
//!
//! The header payload pins the shard identity (`index`/`count` of the
//! stable-hash partition, which routes by solving context) and the
//! [`EngineLimits`] the snapshot was taken under; the cache payload is the
//! LRU-ordered `(fingerprint, solution)` list; the contexts payload is the
//! LRU-ordered retained-table list (packed upper-trapezoid `f64` value /
//! `u32` argmin planes, copied verbatim; see [`crate::tables`]).
//!
//! **Crash consistency** ([`write_atomic`]): the encoding is written to a
//! sibling `.tmp` file, fsynced, atomically renamed over the target, and the
//! directory is fsynced — the target path always holds either the previous
//! complete snapshot or the new one, never a torn write.
//!
//! **Paranoid loading** ([`load`]): a bad magic, unknown version, shard or
//! limits mismatch, truncation, checksum failure or any decode inconsistency
//! rejects the file with a [`SnapshotRejectReason`] and the engine simply
//! starts cold — a corrupt snapshot can never panic or poison the daemon,
//! because every read is bounds-checked and nothing is installed until the
//! whole file has decoded.  Falling back to cold is always sound: solves are
//! deterministic pure functions of `(scenario, algorithm)`, so a cold engine
//! returns bit-identical responses, just slower.
//!
//! This module never reads a clock (the core crate is determinism-scoped);
//! the persistence layer measures write durations and records them through
//! [`Engine::note_snapshot_written`].

use crate::cache::{ContextKey, ScenarioFingerprint};
use crate::dp::{DiskSlice, DpTables};
use crate::engine::{ContextExport, Engine};
use crate::simd_scan::ScanCounters;
use crate::solution::{DpStatistics, Solution};
use crate::tables::{trapezoid_len, SliceTable2};
use crate::{Algorithm, EngineLimits, TableArena};
use chain2l_model::{Action, ActionCounts, Schedule};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic of every chain2l snapshot.
pub const MAGIC: [u8; 8] = *b"C2LSNAPS";
/// Current snapshot format version; any other version is rejected on load.
///
/// The version also covers the shard-routing digest
/// ([`ScenarioFingerprint::stable_hash`]), because a shard's snapshot holds
/// exactly the keys that digest sent it.  Version 4 stores each slice's
/// `Everif` planes packed — row `m1` holds only the columns `m1..=n` — where
/// version 3 stored full `rows × (n + 1)` rectangles; a version-3 file is
/// rejected and that shard cold-starts once, which is always sound.
/// Version 3 was version 2's byte layout under routing by solving context
/// instead of by whole fingerprint.  Version 2 added the blocked-scan
/// tallies ([`crate::simd_scan`]) to the solution statistics and the
/// context tables.
pub const FORMAT_VERSION: u32 = 4;

const SECTION_HEADER: u32 = 1;
const SECTION_CACHE: u32 = 2;
const SECTION_CONTEXTS: u32 = 3;

/// Which slice of the stable-hash partition
/// ([`ScenarioFingerprint::stable_hash`]` % count`) a snapshot belongs to.
///
/// Snapshots are rejected unless both fields match the loading shard: a
/// shard must never warm-start from another shard's partition (or from a
/// run with a different shard count), because the fingerprints it would
/// inherit belong to keys it no longer routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIdentity {
    /// Shard index within the partition (`0..count`).
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
}

impl ShardIdentity {
    /// Identity of shard `index` out of `count`.
    pub fn new(index: u32, count: u32) -> Self {
        Self { index, count }
    }

    /// The identity of an unsharded (single-engine) process.
    pub fn standalone() -> Self {
        Self { index: 0, count: 1 }
    }
}

/// Why a snapshot file was rejected on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRejectReason {
    /// The file exists but could not be read.
    Io,
    /// The file does not start with the snapshot magic.
    Magic,
    /// The format version is not [`FORMAT_VERSION`].
    Version,
    /// The snapshot belongs to a different shard index or shard count.
    Shard,
    /// The snapshot was taken under different [`EngineLimits`].
    Limits,
    /// The file ends before the encoded structures do.
    Truncated,
    /// A section's CRC-32 does not match its payload.
    Checksum,
    /// The payload bytes decode to an inconsistent structure.
    Decode,
}

impl std::fmt::Display for SnapshotRejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Io => "io error",
            Self::Magic => "bad magic",
            Self::Version => "format version mismatch",
            Self::Shard => "shard identity mismatch",
            Self::Limits => "engine limits mismatch",
            Self::Truncated => "truncated",
            Self::Checksum => "checksum mismatch",
            Self::Decode => "decode error",
        })
    }
}

/// Outcome of the boot-time snapshot load, kept in [`crate::EngineStats`] so
/// operators can see whether a boot was warm or cold (and why).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotLoadOutcome {
    /// No load was attempted (persistence not configured).
    #[default]
    NotAttempted,
    /// The snapshot decoded and its state was installed.
    Loaded,
    /// No snapshot file existed — a first boot.
    Absent,
    /// A snapshot file existed but was rejected; the engine started cold.
    Rejected(SnapshotRejectReason),
}

impl std::fmt::Display for SnapshotLoadOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotAttempted => f.write_str("none"),
            Self::Loaded => f.write_str("warm"),
            Self::Absent => f.write_str("cold (no snapshot)"),
            Self::Rejected(reason) => write!(f, "cold (rejected: {reason})"),
        }
    }
}

/// Warm-start persistence counters, embedded in [`crate::EngineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Snapshots successfully written since boot.
    pub written: u64,
    /// Encoded size of the most recent snapshot, in bytes.
    pub last_bytes: u64,
    /// Wall-clock duration of the most recent write, in microseconds
    /// (measured by the persistence layer).
    pub last_write_micros: u64,
    /// Outcome of the boot-time load.
    pub load: SnapshotLoadOutcome,
}

impl std::fmt::Display for SnapshotStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} written (last {} B in {} µs), load: {}",
            self.written, self.last_bytes, self.last_write_micros, self.load
        )
    }
}

/// What a [`load`] did, with a human-readable `detail` line for the daemon
/// log (reject reason, counts restored, path).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The recorded outcome (also stored in the engine's stats).
    pub outcome: SnapshotLoadOutcome,
    /// One log-ready sentence describing the outcome.
    pub detail: String,
}

/// A decode failure: the coarse reason (for stats) plus the precise detail
/// (for the log line).
struct Reject {
    reason: SnapshotRejectReason,
    detail: String,
}

fn truncated(what: &str) -> Reject {
    Reject { reason: SnapshotRejectReason::Truncated, detail: format!("truncated: {what}") }
}

fn malformed(what: impl Into<String>) -> Reject {
    Reject { reason: SnapshotRejectReason::Decode, detail: what.into() }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), table built at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        // lint: allow(panic-index: i < 256 by the loop bound; const evaluation would reject any out-of-range index at compile time)
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum of `bytes` (IEEE polynomial, init/final xor `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        // lint: allow(panic-index: the index is masked to 0..256)
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian primitives.

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_limit(out: &mut Vec<u8>, limit: Option<usize>) {
    match limit {
        Some(v) => {
            out.push(1);
            push_u64(out, v as u64);
        }
        None => {
            out.push(0);
            push_u64(out, 0);
        }
    }
}

/// Assembles a `u64` from up to 8 little-endian bytes without indexing.
fn le_u64(chunk: &[u8]) -> u64 {
    let mut v = 0u64;
    for (shift, &b) in chunk.iter().take(8).enumerate() {
        v |= u64::from(b) << (8 * shift);
    }
    v
}

/// A bounds-checked cursor over the snapshot bytes: every read either
/// returns the requested bytes or a [`Reject`], never panics.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Reject> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated("length overflow"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| truncated("file ends inside an encoded structure"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, Reject> {
        Ok(le_u64(self.take(1)?) as u8)
    }

    fn u32(&mut self) -> Result<u32, Reject> {
        Ok(le_u64(self.take(4)?) as u32)
    }

    fn u64(&mut self) -> Result<u64, Reject> {
        Ok(le_u64(self.take(8)?))
    }

    /// A `u64` length field, converted to `usize`.
    fn len(&mut self) -> Result<usize, Reject> {
        usize::try_from(self.u64()?).map_err(|_| malformed("length exceeds address space"))
    }

    fn u64_vec(&mut self, len: usize) -> Result<Vec<u64>, Reject> {
        let byte_len = len.checked_mul(8).ok_or_else(|| malformed("vector size overflow"))?;
        let bytes = self.take(byte_len)?;
        Ok(bytes.chunks_exact(8).map(le_u64).collect())
    }

    fn f64_vec(&mut self, len: usize) -> Result<Vec<f64>, Reject> {
        Ok(self.u64_vec(len)?.into_iter().map(f64::from_bits).collect())
    }

    /// An `f64` plane of `len` cells, its buffer drawn from `arena`.
    fn f64_plane(&mut self, len: usize, arena: &TableArena) -> Result<Vec<f64>, Reject> {
        let byte_len = len.checked_mul(8).ok_or_else(|| malformed("plane size overflow"))?;
        let bytes = self.take(byte_len)?;
        let mut out = arena.take_f64(len, 0.0);
        for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *slot = f64::from_bits(le_u64(chunk));
        }
        Ok(out)
    }

    /// A `u32` plane of `len` cells, its buffer drawn from `arena`.
    fn u32_plane(&mut self, len: usize, arena: &TableArena) -> Result<Vec<u32>, Reject> {
        let byte_len = len.checked_mul(4).ok_or_else(|| malformed("plane size overflow"))?;
        let bytes = self.take(byte_len)?;
        let mut out = arena.take_u32(len, 0);
        for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *slot = le_u64(chunk) as u32;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Enum codes.

fn algorithm_code(a: Algorithm) -> u8 {
    match a {
        Algorithm::SingleLevel => 0,
        Algorithm::TwoLevel => 1,
        Algorithm::TwoLevelPartial => 2,
        Algorithm::TwoLevelPartialRefined => 3,
    }
}

fn algorithm_from(code: u8) -> Option<Algorithm> {
    match code {
        0 => Some(Algorithm::SingleLevel),
        1 => Some(Algorithm::TwoLevel),
        2 => Some(Algorithm::TwoLevelPartial),
        3 => Some(Algorithm::TwoLevelPartialRefined),
        _ => None,
    }
}

fn action_code(a: Action) -> u8 {
    match a {
        Action::None => 0,
        Action::PartialVerification => 1,
        Action::GuaranteedVerification => 2,
        Action::MemoryCheckpoint => 3,
        Action::DiskCheckpoint => 4,
    }
}

fn action_from(code: u8) -> Option<Action> {
    match code {
        0 => Some(Action::None),
        1 => Some(Action::PartialVerification),
        2 => Some(Action::GuaranteedVerification),
        3 => Some(Action::MemoryCheckpoint),
        4 => Some(Action::DiskCheckpoint),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Encoding.

fn encode_header(limits: EngineLimits, identity: ShardIdentity) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 3 * 9);
    push_u32(&mut out, identity.index);
    push_u32(&mut out, identity.count);
    push_limit(&mut out, limits.cache_entries);
    push_limit(&mut out, limits.cache_bytes);
    push_limit(&mut out, limits.contexts);
    out
}

fn encode_solution(out: &mut Vec<u8>, solution: &Solution) {
    push_u64(out, solution.expected_makespan.to_bits());
    push_u64(out, solution.normalized_makespan.to_bits());
    let actions = solution.schedule.actions();
    push_u64(out, actions.len() as u64);
    out.extend(actions.iter().map(|&a| action_code(a)));
    push_u64(out, solution.counts.disk_checkpoints as u64);
    push_u64(out, solution.counts.memory_checkpoints as u64);
    push_u64(out, solution.counts.guaranteed_verifications as u64);
    push_u64(out, solution.counts.partial_verifications as u64);
    push_u64(out, solution.stats.table_entries as u64);
    push_u64(out, solution.stats.candidates_examined);
    push_u64(out, solution.stats.simd_blocks);
    push_u64(out, solution.stats.scalar_fallbacks);
}

/// The context fields shared by both sections' records: rates, costs,
/// algorithm code.
fn encode_context_key(out: &mut Vec<u8>, key: &ContextKey) {
    push_u64(out, key.lambda_fail_stop);
    push_u64(out, key.lambda_silent);
    for &c in &key.costs {
        push_u64(out, c);
    }
    out.push(algorithm_code(key.algorithm));
}

fn encode_cache(entries: &[(ScenarioFingerprint, Arc<Solution>)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, entries.len() as u64);
    for (fingerprint, solution) in entries {
        encode_context_key(&mut out, &fingerprint.context);
        push_u64(&mut out, fingerprint.weights.len() as u64);
        for &w in &fingerprint.weights {
            push_u64(&mut out, w);
        }
        encode_solution(&mut out, solution);
    }
    out
}

fn encode_contexts(contexts: &[ContextExport]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, contexts.len() as u64);
    for export in contexts {
        encode_context_key(&mut out, &export.key);
        push_u64(&mut out, export.weights.len() as u64);
        for &w in &export.weights {
            push_u64(&mut out, w.to_bits());
        }
        let tables = &export.tables;
        push_u64(&mut out, tables.slices.len() as u64);
        for slice in &tables.slices {
            push_u64(&mut out, slice.everif.row_base() as u64);
            push_u64(&mut out, slice.everif.rows() as u64);
            for &v in slice.everif.as_slice() {
                push_u64(&mut out, v.to_bits());
            }
            for &v in slice.everif_choice.as_slice() {
                push_u32(&mut out, v);
            }
            for &v in &slice.emem {
                push_u64(&mut out, v.to_bits());
            }
            for &v in &slice.emem_choice {
                push_u32(&mut out, v);
            }
            push_u64(&mut out, slice.candidates);
            push_u64(&mut out, slice.scan.simd_blocks);
            push_u64(&mut out, slice.scan.scalar_fallbacks);
        }
        for &v in &tables.edisk {
            push_u64(&mut out, v.to_bits());
        }
        for &v in &tables.edisk_choice {
            push_u32(&mut out, v);
        }
        push_u64(&mut out, tables.floor_candidates);
        push_u64(&mut out, tables.candidates);
        push_u64(&mut out, tables.floor_scan.simd_blocks);
        push_u64(&mut out, tables.floor_scan.scalar_fallbacks);
        push_u64(&mut out, tables.scan.simd_blocks);
        push_u64(&mut out, tables.scan.scalar_fallbacks);
    }
    out
}

/// Encodes the engine's current warm state as one self-contained snapshot.
///
/// Capture respects the engine's `try_lock` discipline: in-flight cache
/// entries and busy contexts are skipped, never waited on.
pub fn encode(engine: &Engine, identity: ShardIdentity) -> Vec<u8> {
    let header = encode_header(engine.limits(), identity);
    let cache = encode_cache(&engine.snapshot_cache().export_entries());
    let contexts = engine.export_contexts();
    let contexts_payload = encode_contexts(&contexts);
    // The deep copies came out of the arena; hand their buffers back so the
    // next snapshot cycle reuses them instead of growing the pool.
    for export in contexts {
        export.tables.recycle(engine.snapshot_arena());
    }
    let mut out = Vec::with_capacity(64 + header.len() + cache.len() + contexts_payload.len());
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, 3);
    for (tag, payload) in
        [(SECTION_HEADER, &header), (SECTION_CACHE, &cache), (SECTION_CONTEXTS, &contexts_payload)]
    {
        push_u32(&mut out, tag);
        push_u64(&mut out, payload.len() as u64);
        push_u32(&mut out, crc32(payload));
        out.extend_from_slice(payload);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding.

/// A fully decoded snapshot, not yet installed anywhere.
struct DecodedSnapshot {
    entries: Vec<(ScenarioFingerprint, Solution)>,
    contexts: Vec<ContextExport>,
}

fn read_section<'a>(r: &mut Reader<'a>, expected_tag: u32) -> Result<&'a [u8], Reject> {
    let tag = r.u32()?;
    if tag != expected_tag {
        return Err(malformed(format!("section tag {tag}, expected {expected_tag}")));
    }
    let len = r.len()?;
    let stored_crc = r.u32()?;
    let payload = r.take(len)?;
    let actual_crc = crc32(payload);
    if actual_crc != stored_crc {
        return Err(Reject {
            reason: SnapshotRejectReason::Checksum,
            detail: format!(
                "section {expected_tag} checksum mismatch \
                 (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            ),
        });
    }
    Ok(payload)
}

fn check_header(
    payload: &[u8],
    limits: EngineLimits,
    identity: ShardIdentity,
) -> Result<(), Reject> {
    let mut r = Reader::new(payload);
    let index = r.u32()?;
    let count = r.u32()?;
    if (index, count) != (identity.index, identity.count) {
        return Err(Reject {
            reason: SnapshotRejectReason::Shard,
            detail: format!(
                "snapshot is for shard {index} of {count}, \
                 this shard is {} of {}",
                identity.index, identity.count
            ),
        });
    }
    let mut read_limit = |name: &str| -> Result<Option<usize>, Reject> {
        let flag = r.u8()?;
        let value = r.len()?;
        match flag {
            0 => Ok(None),
            1 => Ok(Some(value)),
            _ => Err(malformed(format!("bad {name} limit flag {flag}"))),
        }
    };
    let stored = EngineLimits {
        cache_entries: read_limit("cache_entries")?,
        cache_bytes: read_limit("cache_bytes")?,
        contexts: read_limit("contexts")?,
    };
    if stored != limits {
        return Err(Reject {
            reason: SnapshotRejectReason::Limits,
            detail: format!("snapshot limits {stored:?} != engine limits {limits:?}"),
        });
    }
    if !r.is_empty() {
        return Err(malformed("trailing bytes in header section"));
    }
    Ok(())
}

fn decode_context_key(r: &mut Reader<'_>) -> Result<ContextKey, Reject> {
    let lambda_fail_stop = r.u64()?;
    let lambda_silent = r.u64()?;
    let mut costs = [0u64; 7];
    for c in costs.iter_mut() {
        *c = r.u64()?;
    }
    let code = r.u8()?;
    let algorithm =
        algorithm_from(code).ok_or_else(|| malformed(format!("bad algorithm code {code}")))?;
    Ok(ContextKey { lambda_fail_stop, lambda_silent, costs, algorithm })
}

fn decode_solution(r: &mut Reader<'_>) -> Result<Solution, Reject> {
    let expected_makespan = f64::from_bits(r.u64()?);
    let normalized_makespan = f64::from_bits(r.u64()?);
    let sched_len = r.len()?;
    let action_bytes = r.take(sched_len)?;
    let mut actions = Vec::with_capacity(sched_len);
    for &b in action_bytes {
        actions.push(action_from(b).ok_or_else(|| malformed(format!("bad action code {b}")))?);
    }
    let schedule =
        Schedule::from_actions(actions).map_err(|e| malformed(format!("invalid schedule: {e}")))?;
    let mut count = |name: &str| -> Result<usize, Reject> {
        usize::try_from(r.u64()?).map_err(|_| malformed(format!("{name} count overflow")))
    };
    let counts = ActionCounts {
        disk_checkpoints: count("disk checkpoint")?,
        memory_checkpoints: count("memory checkpoint")?,
        guaranteed_verifications: count("guaranteed verification")?,
        partial_verifications: count("partial verification")?,
    };
    let table_entries = count("table entry")?;
    let candidates_examined = r.u64()?;
    let simd_blocks = r.u64()?;
    let scalar_fallbacks = r.u64()?;
    Ok(Solution {
        expected_makespan,
        normalized_makespan,
        schedule,
        counts,
        stats: DpStatistics { table_entries, candidates_examined, simd_blocks, scalar_fallbacks },
    })
}

fn decode_cache(payload: &[u8]) -> Result<Vec<(ScenarioFingerprint, Solution)>, Reject> {
    let mut r = Reader::new(payload);
    let count = r.u64()?;
    let mut out = Vec::new();
    for _ in 0..count {
        let context = decode_context_key(&mut r)?;
        let n = r.len()?;
        let weights = r.u64_vec(n)?;
        let fingerprint = ScenarioFingerprint { context, weights };
        let solution = decode_solution(&mut r)?;
        out.push((fingerprint, solution));
    }
    if !r.is_empty() {
        return Err(malformed("trailing bytes in cache section"));
    }
    Ok(out)
}

fn decode_contexts(payload: &[u8], arena: &TableArena) -> Result<Vec<ContextExport>, Reject> {
    let mut r = Reader::new(payload);
    let count = r.u64()?;
    let mut out = Vec::new();
    for _ in 0..count {
        let key = decode_context_key(&mut r)?;
        let n = r.len()?;
        if n == 0 {
            return Err(malformed("context with an empty weight vector"));
        }
        let weights = r.f64_vec(n)?;
        let dim = n.checked_add(1).ok_or_else(|| malformed("context size overflow"))?;
        let slice_count = r.len()?;
        if slice_count != n {
            return Err(malformed(format!("{slice_count} slices for an {n}-task context")));
        }
        let mut slices = Vec::with_capacity(slice_count);
        for d1 in 0..slice_count {
            let row_base = r.len()?;
            if row_base != d1 {
                return Err(malformed(format!("slice {d1} claims row base {row_base}")));
            }
            // A slice's Everif rows are `m1 ∈ d1..d1 + rows` with `m1 < n`.
            let rows = r.len()?;
            if rows == 0 || rows > n - d1 {
                return Err(malformed(format!("slice {d1} has {rows} rows for {n} tasks")));
            }
            let plane_len =
                trapezoid_len(n, d1, rows).ok_or_else(|| malformed("slice plane overflow"))?;
            let everif = r.f64_plane(plane_len, arena)?;
            let everif_choice = r.u32_plane(plane_len, arena)?;
            let emem = r.f64_plane(dim, arena)?;
            let emem_choice = r.u32_plane(dim, arena)?;
            let candidates = r.u64()?;
            let scan = ScanCounters { simd_blocks: r.u64()?, scalar_fallbacks: r.u64()? };
            let mut slice = DiskSlice {
                everif: SliceTable2::from_buffer(n, d1, rows, everif),
                everif_choice: SliceTable2::from_buffer(n, d1, rows, everif_choice),
                emem,
                emem_choice,
                candidates,
                scan,
                entries: 0,
            };
            slice.entries = slice.count_finite_entries();
            slices.push(slice);
        }
        let edisk = r.f64_plane(dim, arena)?;
        let edisk_choice = r.u32_plane(dim, arena)?;
        let floor_candidates = r.u64()?;
        let candidates = r.u64()?;
        let floor_scan = ScanCounters { simd_blocks: r.u64()?, scalar_fallbacks: r.u64()? };
        let scan = ScanCounters { simd_blocks: r.u64()?, scalar_fallbacks: r.u64()? };
        out.push(ContextExport {
            key,
            weights,
            tables: DpTables {
                slices,
                edisk,
                edisk_choice,
                floor_candidates,
                candidates,
                floor_scan,
                scan,
            },
        });
    }
    if !r.is_empty() {
        return Err(malformed("trailing bytes in contexts section"));
    }
    Ok(out)
}

fn decode(
    bytes: &[u8],
    limits: EngineLimits,
    identity: ShardIdentity,
    arena: &TableArena,
) -> Result<DecodedSnapshot, Reject> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8).map_err(|_| Reject {
        reason: SnapshotRejectReason::Magic,
        detail: "file shorter than the snapshot magic".to_string(),
    })?;
    if magic != MAGIC {
        return Err(Reject {
            reason: SnapshotRejectReason::Magic,
            detail: "not a chain2l snapshot (bad magic)".to_string(),
        });
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(Reject {
            reason: SnapshotRejectReason::Version,
            detail: format!("snapshot format v{version}, this build reads v{FORMAT_VERSION}"),
        });
    }
    let sections = r.u32()?;
    if sections != 3 {
        return Err(malformed(format!("{sections} sections, expected 3")));
    }
    let header = read_section(&mut r, SECTION_HEADER)?;
    let cache = read_section(&mut r, SECTION_CACHE)?;
    let contexts = read_section(&mut r, SECTION_CONTEXTS)?;
    if !r.is_empty() {
        return Err(malformed("trailing bytes after the last section"));
    }
    check_header(header, limits, identity)?;
    Ok(DecodedSnapshot {
        entries: decode_cache(cache)?,
        contexts: decode_contexts(contexts, arena)?,
    })
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.

/// Writes `bytes` to `path` crash-consistently: sibling `.tmp` file, fsync,
/// atomic rename, directory fsync — the target is never overwritten in
/// place, so it always holds a complete snapshot (old or new).  Returns the
/// number of bytes written.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<u64> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "snapshot path has no file name")
    })?;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    let result = (|| {
        // Failpoint sites cover each distinct fault the crash-consistency
        // argument relies on surviving: a torn write, a lost fsync, and a
        // failed rename (see DESIGN.md §12).
        crate::failpoint::fail_io("snapshot.write")?;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        crate::failpoint::fail_io("snapshot.fsync")?;
        file.sync_all()?;
        drop(file);
        crate::failpoint::fail_io("snapshot.rename")?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable.  Directory fsync is best-effort:
        // some filesystems reject it, and a failure here cannot tear the
        // file — at worst the rename is not yet journaled.
        if let Ok(d) = fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(bytes.len() as u64)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Encodes the engine's warm state and writes it to `path` crash-
/// consistently.  Returns the snapshot size in bytes; the caller should
/// record it (with its measured duration) via
/// [`Engine::note_snapshot_written`].
pub fn save(engine: &Engine, path: &Path, identity: ShardIdentity) -> io::Result<u64> {
    let bytes = encode(engine, identity);
    write_atomic(path, &bytes)
}

/// Loads the snapshot at `path` into `engine`, paranoidly.
///
/// Any failure — missing file, bad magic, version/shard/limits mismatch,
/// truncation, checksum failure, decode inconsistency — leaves the engine
/// exactly as it was (cold, if this is boot) and reports why; nothing short
/// of a fully decoded snapshot installs any state.  The outcome is recorded
/// in the engine's stats; the caller logs `detail`.
pub fn load(engine: &Engine, path: &Path, identity: ShardIdentity) -> LoadReport {
    let report = match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => LoadReport {
            outcome: SnapshotLoadOutcome::Absent,
            detail: format!("cold start: no snapshot at {}", path.display()),
        },
        Err(e) => LoadReport {
            outcome: SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Io),
            detail: format!("cold start: cannot read {}: {e}", path.display()),
        },
        Ok(bytes) => match decode(&bytes, engine.limits(), identity, engine.snapshot_arena()) {
            Ok(decoded) => {
                let mut entries = 0usize;
                for (fingerprint, solution) in decoded.entries {
                    if engine.snapshot_cache().restore_entry(fingerprint, Arc::new(solution)) {
                        entries += 1;
                    }
                }
                let mut contexts = 0usize;
                for export in decoded.contexts {
                    if engine.import_context(export) {
                        contexts += 1;
                    }
                }
                LoadReport {
                    outcome: SnapshotLoadOutcome::Loaded,
                    detail: format!(
                        "warm start: restored {entries} cached solutions and \
                         {contexts} retained contexts from {}",
                        path.display()
                    ),
                }
            }
            Err(reject) => LoadReport {
                outcome: SnapshotLoadOutcome::Rejected(reject.reason),
                detail: format!(
                    "cold start: snapshot {} rejected: {}",
                    path.display(),
                    reject.detail
                ),
            },
        },
    };
    engine.note_snapshot_load(report.outcome);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::platform::scr;
    use chain2l_model::{ResilienceCosts, Scenario, TaskChain, WeightPattern};

    fn paper(n: usize) -> Scenario {
        Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 25_000.0).unwrap()
    }

    fn weak(n: usize) -> Scenario {
        let platform = scr::hera();
        let costs = ResilienceCosts::paper_defaults(&platform);
        Scenario::new(TaskChain::from_weights(vec![500.0; n]).unwrap(), platform, costs).unwrap()
    }

    fn temp_path(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chain2l-snapshot-{label}-{}.snap", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn save_and_load_round_trip_serves_warm() {
        let path = temp_path("roundtrip");
        let engine = Engine::new();
        // Distinct algorithms so each solve retains its own context (the
        // paper scenarios share weak()'s platform and cost model).
        engine.solve(&paper(8), Algorithm::SingleLevel);
        engine.solve(&paper(10), Algorithm::TwoLevelPartial);
        engine.solve(&weak(12), Algorithm::TwoLevel);
        let bytes = save(&engine, &path, ShardIdentity::standalone()).unwrap();
        assert!(bytes > 0);

        let restored = Engine::new();
        let report = load(&restored, &path, ShardIdentity::standalone());
        assert_eq!(report.outcome, SnapshotLoadOutcome::Loaded, "{}", report.detail);
        assert_eq!(restored.stats().snapshot.load, SnapshotLoadOutcome::Loaded);
        // Every previously solved scenario is now a cache hit, bit-identical.
        for (s, a) in [
            (paper(8), Algorithm::SingleLevel),
            (paper(10), Algorithm::TwoLevelPartial),
            (weak(12), Algorithm::TwoLevel),
        ] {
            let warm = restored.solve(&s, a);
            let cold = crate::optimize(&s, a);
            assert_eq!(warm.expected_makespan.to_bits(), cold.expected_makespan.to_bits());
            assert_eq!(warm.schedule, cold.schedule);
            assert_eq!(warm.stats, cold.stats);
        }
        let stats = restored.stats();
        assert_eq!(stats.cache.hits, 3, "{stats:?}");
        assert_eq!(stats.cache.misses, 0, "{stats:?}");
        // The restored tables also serve extensions, bit-identically.
        let extended = restored.solve(&weak(20), Algorithm::TwoLevel);
        let direct = crate::optimize(&weak(20), Algorithm::TwoLevel);
        assert_eq!(extended.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
        assert_eq!(extended.schedule, direct.schedule);
        assert_eq!(restored.stats().extended, 1, "{:?}", restored.stats());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_snapshot_is_absent_not_an_error() {
        let engine = Engine::new();
        let report =
            load(&engine, Path::new("/nonexistent/dir/shard-0.snap"), ShardIdentity::standalone());
        assert_eq!(report.outcome, SnapshotLoadOutcome::Absent);
        assert_eq!(engine.stats().snapshot.load, SnapshotLoadOutcome::Absent);
        assert!(engine.solve(&paper(5), Algorithm::TwoLevel).expected_makespan.is_finite());
    }

    #[test]
    fn shard_and_limits_mismatches_reject() {
        let path = temp_path("identity");
        let engine = Engine::new();
        engine.solve(&paper(6), Algorithm::TwoLevel);
        save(&engine, &path, ShardIdentity::new(1, 4)).unwrap();

        let other_shard = Engine::new();
        let report = load(&other_shard, &path, ShardIdentity::new(2, 4));
        assert_eq!(
            report.outcome,
            SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Shard),
            "{}",
            report.detail
        );
        assert!(other_shard.is_cold());

        let other_limits = Engine::with_limits(EngineLimits::entry_cap(64));
        let report = load(&other_limits, &path, ShardIdentity::new(1, 4));
        assert_eq!(
            report.outcome,
            SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Limits),
            "{}",
            report.detail
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn version_bump_and_bad_magic_reject() {
        let engine = Engine::new();
        engine.solve(&paper(5), Algorithm::SingleLevel);
        let fresh = Engine::new();
        // A future version; version 3, whose context planes are full
        // rectangles; and version 2, partitioned by the old whole-fingerprint
        // routing digest.
        for version in [99u32, 3, 2] {
            let mut bytes = encode(&engine, ShardIdentity::standalone());
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let path = temp_path(&format!("version-{version}"));
            write_atomic(&path, &bytes).unwrap();
            let report = load(&fresh, &path, ShardIdentity::standalone());
            assert_eq!(
                report.outcome,
                SnapshotLoadOutcome::Rejected(SnapshotRejectReason::Version),
                "v{version}: {}",
                report.detail
            );
            assert!(fresh.is_cold(), "a rejected v{version} file must leave the engine cold");
            let _ = fs::remove_file(&path);
        }

        let mut bytes = encode(&engine, ShardIdentity::standalone());
        bytes[0] = b'X';
        let err =
            decode(&bytes, fresh.limits(), ShardIdentity::standalone(), fresh.snapshot_arena())
                .err()
                .unwrap();
        assert_eq!(err.reason, SnapshotRejectReason::Magic, "{}", err.detail);
    }

    impl PartialEq for Reject {
        fn eq(&self, other: &Self) -> bool {
            self.reason == other.reason
        }
    }

    impl std::fmt::Debug for Reject {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Reject({:?}: {})", self.reason, self.detail)
        }
    }

    impl Engine {
        /// Test helper: no cached solutions and no retained contexts.
        fn is_cold(&self) -> bool {
            self.stats().cache.entries == 0 && self.context_count() == 0
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let path = temp_path("atomic");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second-longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second-longer");
        // No .tmp remnant after a successful write.
        let tmp =
            path.with_file_name(format!("{}.tmp", path.file_name().unwrap().to_string_lossy()));
        assert!(!tmp.exists());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_into_missing_directory_errors_without_panicking() {
        let engine = Engine::new();
        let err = save(
            &engine,
            Path::new("/nonexistent-chain2l-dir/shard-0.snap"),
            ShardIdentity::standalone(),
        );
        assert!(err.is_err());
    }
}
