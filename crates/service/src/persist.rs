//! Warm-start persistence for shard workers: boot-time snapshot loading,
//! periodic background snapshotting and snapshot-on-shutdown, built on
//! [`chain2l_core::snapshot`].
//!
//! Each shard worker owns one snapshot file inside the daemon's
//! `--state-dir`, keyed by its slice of the context partition
//! (`shard-<index>-of-<count>.snap`), so restarting with a different
//! `--shards` count cold-starts cleanly instead of loading another
//! partition's state.  All writes go through the core's crash-consistent
//! `.tmp` → fsync → rename path, and all loads are paranoid: any corruption
//! degrades to a cold start with a logged reason, never a panic.
//!
//! Snapshotting never touches the solve hot path: capture uses the engine's
//! `try_lock` discipline (in-flight solves and mid-extension contexts are
//! simply skipped and picked up by the next cycle), and the [`Persister`]
//! serializes concurrent snapshot attempts (periodic timer vs. shutdown)
//! behind its own lock so two writers can never interleave on the temp
//! file.

use chain2l_core::snapshot::{self, ShardIdentity};
use chain2l_core::Engine;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where and how often one shard worker persists its engine state.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the per-shard snapshot files (must exist).
    pub state_dir: PathBuf,
    /// Seconds between periodic background snapshots (≥ 1).
    pub snapshot_every_secs: u64,
    /// This worker's slice of the context partition.
    pub identity: ShardIdentity,
}

impl PersistConfig {
    /// The snapshot file this worker owns:
    /// `<state_dir>/shard-<index>-of-<count>.snap`.
    pub fn snapshot_path(&self) -> PathBuf {
        self.state_dir
            .join(format!("shard-{}-of-{}.snap", self.identity.index, self.identity.count))
    }
}

/// Serializes every snapshot write of one worker (periodic timer, shutdown
/// path and parent-death watchdog can race) and owns the boot-load step.
pub struct Persister {
    config: PersistConfig,
    write_lock: Mutex<()>,
}

impl Persister {
    /// A persister for `config`.
    pub fn new(config: PersistConfig) -> Self {
        Self { config, write_lock: Mutex::new(()) }
    }

    /// The persistence configuration this persister runs.
    pub fn config(&self) -> &PersistConfig {
        &self.config
    }

    /// Boot-time load: restores the worker's snapshot into `engine` if one
    /// exists and is intact, logging the outcome (warm or cold, and why) to
    /// stderr.  Never fails — a missing or corrupt snapshot is a cold
    /// start, not an error.
    pub fn boot_load(&self, engine: &Engine) {
        if let Err(e) = chain2l_core::failpoint::fail_io("persist.boot") {
            log_line(&self.config.identity, &format!("cold start: boot load skipped ({e})"));
            return;
        }
        let path = self.config.snapshot_path();
        let report = snapshot::load(engine, &path, self.config.identity);
        log_line(&self.config.identity, &report.detail);
    }

    /// Takes one snapshot now: encodes the engine's warm state and writes
    /// it crash-consistently, recording the byte size and wall-clock write
    /// duration in the engine's statistics.  A failed write is logged and
    /// dropped — the previous snapshot (if any) is still intact on disk,
    /// and the next cycle retries.
    pub fn snapshot_now(&self, engine: &Engine) {
        let _guard = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        let path = self.config.snapshot_path();
        if let Err(e) = chain2l_core::failpoint::fail_io("persist.write") {
            log_line(
                &self.config.identity,
                &format!("snapshot write to {} failed: {e}", path.display()),
            );
            return;
        }
        let start = Instant::now();
        match snapshot::save(engine, &path, self.config.identity) {
            Ok(bytes) => {
                let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                engine.note_snapshot_written(bytes, micros);
            }
            Err(e) => {
                log_line(
                    &self.config.identity,
                    &format!("snapshot write to {} failed: {e}", path.display()),
                );
            }
        }
    }

    /// Spawns the periodic snapshot thread: every `snapshot_every_secs` it
    /// takes one snapshot off the hot path.  The thread dies with the
    /// process; the shutdown paths take their own final snapshot instead of
    /// waiting for it.
    pub fn spawn_periodic(self: &Arc<Self>, engine: &Arc<Engine>) {
        let persister = Arc::clone(self);
        let engine = Arc::clone(engine);
        let every = Duration::from_secs(persister.config.snapshot_every_secs.max(1));
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            persister.snapshot_now(&engine);
        });
    }
}

fn log_line(identity: &ShardIdentity, detail: &str) {
    eprintln!("chain2l shard {}/{}: {detail}", identity.index, identity.count);
}

/// Probes that `dir` is an existing, writable directory by creating and
/// removing a dotfile inside it.  Returns the failure as text (for a usage
/// error) rather than an `io::Error` so callers can surface the expectation.
pub fn check_state_dir(dir: &Path) -> Result<(), String> {
    if !dir.is_dir() {
        return Err(format!("{} is not an existing directory", dir.display()));
    }
    let probe = dir.join(format!(".chain2l-probe-{}", std::process::id()));
    match std::fs::write(&probe, b"probe") {
        Ok(()) => {
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(format!("{} is not writable ({e})", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_core::SnapshotLoadOutcome;
    use chain2l_model::platform::scr;
    use chain2l_model::{Scenario, WeightPattern};

    fn temp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chain2l-persist-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_path_is_keyed_by_partition_slice() {
        let config = PersistConfig {
            state_dir: PathBuf::from("/state"),
            snapshot_every_secs: 30,
            identity: ShardIdentity::new(2, 4),
        };
        assert_eq!(config.snapshot_path(), PathBuf::from("/state/shard-2-of-4.snap"));
    }

    #[test]
    fn snapshot_cycle_round_trips_and_records_stats() {
        let dir = temp_dir("cycle");
        let persister = Persister::new(PersistConfig {
            state_dir: dir.clone(),
            snapshot_every_secs: 30,
            identity: ShardIdentity::new(1, 3),
        });
        let engine = Engine::new();
        // First boot: nothing on disk yet.
        persister.boot_load(&engine);
        assert_eq!(engine.stats().snapshot.load, SnapshotLoadOutcome::Absent);
        let scenario =
            Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 7, 25_000.0).unwrap();
        engine.solve(&scenario, chain2l_core::Algorithm::TwoLevel);
        persister.snapshot_now(&engine);
        let stats = engine.stats().snapshot;
        assert_eq!(stats.written, 1);
        assert!(stats.last_bytes > 0);

        // Second boot: warm, and a different identity refuses the file.
        let warm = Engine::new();
        persister.boot_load(&warm);
        assert_eq!(warm.stats().snapshot.load, SnapshotLoadOutcome::Loaded);
        let wrong = Persister::new(PersistConfig {
            state_dir: dir.clone(),
            snapshot_every_secs: 30,
            identity: ShardIdentity::new(0, 3),
        });
        let cold = Engine::new();
        wrong.boot_load(&cold);
        // A different slice owns a different file, so this is Absent (not a
        // mis-load of shard 1's partition).
        assert_eq!(cold.stats().snapshot.load, SnapshotLoadOutcome::Absent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_state_dir_accepts_writable_and_rejects_missing() {
        let dir = temp_dir("check");
        assert!(check_state_dir(&dir).is_ok());
        let missing = dir.join("does-not-exist");
        let err = check_state_dir(&missing).unwrap_err();
        assert!(err.contains("not an existing directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
