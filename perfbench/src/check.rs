//! Answer checking against in-process solves, and the run-to-run check of
//! the deterministic counters.

use chain2l_core::Engine;
use chain2l_service::protocol::{resolve_spec, SolveResult, SolveSpec};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::Path;

/// A spec as a hashable key (the weight by its bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecKey {
    platform: String,
    pattern: String,
    tasks: usize,
    weight: u64,
    algorithm: String,
}

impl SpecKey {
    /// The key of `spec`.
    pub fn of(spec: &SolveSpec) -> SpecKey {
        SpecKey {
            platform: spec.platform.clone(),
            pattern: spec.pattern.clone(),
            tasks: spec.tasks,
            weight: spec.weight.to_bits(),
            algorithm: spec.algorithm.clone(),
        }
    }
}

/// Whether two answers agree: makespan bits and all four action counts.
pub fn same_answer(a: &SolveResult, b: &SolveResult) -> bool {
    a.expected_makespan.to_bits() == b.expected_makespan.to_bits()
        && (a.disk, a.memory, a.guaranteed, a.partial)
            == (b.disk, b.memory, b.guaranteed, b.partial)
}

/// Solves every distinct spec in process.  Specs of one weak-scaling series
/// (same platform, pattern, algorithm and per-task weight) share an engine
/// and are solved in ascending length, so long series extend instead of
/// re-solving cold; series are spread over the available cores.
pub fn expected<'a>(
    specs: impl IntoIterator<Item = &'a SolveSpec>,
) -> Result<HashMap<SpecKey, SolveResult>, String> {
    type Series = (String, String, String, u64);
    let mut series: BTreeMap<Series, BTreeMap<SpecKey, &SolveSpec>> = BTreeMap::new();
    for spec in specs {
        let id = (
            spec.platform.clone(),
            spec.pattern.clone(),
            spec.algorithm.clone(),
            (spec.weight / spec.tasks as f64).to_bits(),
        );
        series.entry(id).or_default().insert(SpecKey::of(spec), spec);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shares: Vec<Vec<Vec<(SpecKey, &SolveSpec)>>> = vec![Vec::new(); threads];
    for (i, members) in series.into_values().enumerate() {
        let mut members: Vec<(SpecKey, &SolveSpec)> = members.into_iter().collect();
        members.sort_by_key(|(key, _)| key.tasks);
        shares[i % threads].push(members);
    }
    let solved: Vec<Result<Vec<(SpecKey, SolveResult)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for members in share {
                        let engine = Engine::new();
                        for (key, spec) in members {
                            let (scenario, algorithm) = resolve_spec(spec)?;
                            let solution = engine.solve(&scenario, algorithm);
                            out.push((key, SolveResult::from_solution(&solution)));
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("answer-check thread panicked".into())))
            .collect()
    });
    let mut answers = HashMap::new();
    for part in solved {
        answers.extend(part?);
    }
    Ok(answers)
}

/// FNV-1a digest of a file's bytes (0 if it cannot be read).
pub fn file_digest(path: &Path) -> u64 {
    fs::read(path).unwrap_or_default().iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Compares `counts` with what an earlier run with the same `key` (same
/// build, workload, seed and run length) recorded in `dir`, recording them
/// on first sight.
pub fn repeatable(dir: &Path, key: &str, counts: &str) -> Result<(), String> {
    let path = dir.join(format!("counts-{key}.txt"));
    match fs::read_to_string(&path) {
        Ok(earlier) if earlier == counts => Ok(()),
        Ok(earlier) => Err(format!(
            "deterministic counts differ from an earlier run of this build and seed\n  \
             earlier: {earlier}\n  now:     {counts}"
        )),
        Err(_) => fs::write(&path, counts).map_err(|e| format!("{}: {e}", path.display())),
    }
}
