//! Output checks: the failure accounting behind `failed`/`attempted`, the
//! measurement-CSV digest and the recorded reference values.

use dms_experiments::report::measurements_csv;
use dms_experiments::LoopMeasurement;
use std::collections::BTreeMap;
use std::path::Path;

/// Counts checked operations and the ones that failed or were wrong.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and comparisons checked.
    pub attempted: u64,
    /// Of those, the ones that failed or disagreed with their reference.
    pub failed: u64,
    notes: Vec<String>,
}

/// Failure messages kept for the report; the count is always exact.
const MAX_NOTES: usize = 20;

impl Checks {
    /// Records one checked operation; `describe` runs only on failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(describe());
            }
        }
    }

    /// Records `n` operations checked in bulk, `failed` of which failed.
    pub fn bulk(&mut self, n: u64, failed: u64, describe: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(describe());
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The first failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of the measurement CSV with the `cache_hit` column removed, so a
/// cold and a warm sweep of the same grid digest the same.
pub fn csv_digest(rows: &[LoopMeasurement]) -> u64 {
    let csv = measurements_csv(rows);
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or_default();
    let skip = header.split(',').position(|c| c == "cache_hit");
    let mut out = String::with_capacity(csv.len());
    for line in std::iter::once(header).chain(lines) {
        let kept: Vec<&str> =
            line.split(',').enumerate().filter(|(i, _)| Some(*i) != skip).map(|(_, f)| f).collect();
        out.push_str(&kept.join(","));
        out.push('\n');
    }
    fnv64(out.as_bytes())
}

/// Recorded values: one `<workload> <seed> <name> <value>` per line, where
/// a seed of `*` records a value every seed must reproduce; `#` starts a
/// comment.
#[derive(Debug, Default)]
pub struct Reference {
    values: BTreeMap<(String, Option<u64>, String), String>,
}

impl Reference {
    /// Loads a reference file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading reference {}: {e}", path.display()))?;
        Reference::parse(&text)
    }

    /// Parses reference lines.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut values = BTreeMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, name, value] = fields[..] else {
                return Err(format!("reference line needs 4 fields: {line}"));
            };
            let seed = match seed {
                "*" => None,
                s => Some(s.parse().map_err(|_| format!("bad seed in reference line: {line}"))?),
            };
            values.insert((workload.to_string(), seed, name.to_string()), value.to_string());
        }
        Ok(Reference { values })
    }

    /// Checks `actual` against the value recorded for (workload, seed,
    /// name), or for every seed. Values recorded for neither are not
    /// checked.
    pub fn expect(&self, checks: &mut Checks, workload: &str, seed: u64, name: &str, actual: &str) {
        let key = |seed| (workload.to_string(), seed, name.to_string());
        if let Some(expected) =
            self.values.get(&key(Some(seed))).or_else(|| self.values.get(&key(None)))
        {
            checks.check(expected == actual, || {
                format!("{name} is {actual}, the reference for seed {seed} records {expected}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mismatched_digest_counts_as_one_failed_operation() {
        let reference = Reference::parse("# comment\nsweep_sched 7 csv_digest 0x1\n").unwrap();
        let mut checks = Checks::default();
        for _ in 0..3 {
            checks.check(true, || unreachable!());
        }
        reference.expect(&mut checks, "sweep_sched", 7, "csv_digest", "0x2");
        assert_eq!((checks.attempted, checks.failed), (4, 1));
        assert_eq!(checks.failed_frac(), 0.25);
        assert!(checks.notes()[0].contains("0x1"), "{:?}", checks.notes());
    }

    #[test]
    fn matching_and_unrecorded_values_do_not_fail() {
        let reference = Reference::parse("sweep_sched 7 csv_digest 0x1").unwrap();
        let mut checks = Checks::default();
        reference.expect(&mut checks, "sweep_sched", 7, "csv_digest", "0x1");
        reference.expect(&mut checks, "sweep_sched", 8, "csv_digest", "0x2");
        reference.expect(&mut checks, "service_mixed", 7, "csv_digest", "0x2");
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        assert_eq!(checks.failed_frac(), 0.0);
    }

    #[test]
    fn bulk_failures_add_to_the_same_fraction() {
        let mut checks = Checks::default();
        checks.bulk(10, 0, || unreachable!());
        checks.bulk(10, 2, || "two cells failed".to_string());
        assert_eq!(checks.failed_frac(), 0.1);
        assert_eq!(Checks::default().failed_frac(), 1.0, "nothing attempted is a failure");
    }

    #[test]
    fn a_wildcard_seed_applies_to_every_seed() {
        let reference = Reference::parse("sweep_sched * csv_digest 0x1").unwrap();
        let mut checks = Checks::default();
        reference.expect(&mut checks, "sweep_sched", 7, "csv_digest", "0x1");
        reference.expect(&mut checks, "sweep_sched", 8, "csv_digest", "0x2");
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn malformed_reference_lines_are_rejected() {
        assert!(Reference::parse("sweep_sched 7 csv_digest").is_err());
        assert!(Reference::parse("sweep_sched x csv_digest 1").is_err());
    }

    #[test]
    fn the_digest_ignores_only_the_cache_hit_column() {
        let mut cfg = dms_experiments::ExperimentConfig::quick(3);
        cfg.cluster_counts = vec![2];
        let rows = dms_experiments::runner::measure_suite(&cfg);
        let mut hit = rows.clone();
        hit[0].cache_hit = !hit[0].cache_hit;
        assert_eq!(csv_digest(&rows), csv_digest(&hit));
        let mut other = rows.clone();
        other[0].clustered_ii += 1;
        assert_ne!(csv_digest(&rows), csv_digest(&other));
    }
}
