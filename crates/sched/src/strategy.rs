//! The scheduler strategy surface: which search drives loop scheduling.
//!
//! The paper's DMS is one deterministic heuristic. [`SchedulerStrategy`]
//! names the searches the workspace can run on top of the same placement
//! machinery (the three DMS strategies, chains, the pressure model and the
//! II-relaxation loop):
//!
//! * [`SchedulerStrategy::Dms`] — the deterministic heuristic, bit-identical
//!   to every release since the workspace bring-up. The default.
//! * [`SchedulerStrategy::Beam`] — a beam search that keeps the best `width`
//!   partial placements per scheduling step, scored by (schedule span — the
//!   II-slack proxy at a fixed II — then queue pressure).
//! * [`SchedulerStrategy::Portfolio`] — an explore/exploit candidate pool:
//!   `n_candidates` DMS runs with deterministically-seeded randomized
//!   priorities, keeping the Pareto-best (II, pressure, code size) point.
//!
//! Both non-default strategies schedule the plain heuristic first and only
//! replace it with a challenger that **Pareto-dominates-or-equals** it on
//! (II, queue pressure, code size) — so neither can ever produce a worse
//! schedule than `Dms`, a property the tier-1 suite pins.
//!
//! Every strategy is a pure function of its inputs: portfolio randomness is
//! seeded from the loop name and the candidate index, never from global
//! state, so sweeps stay byte-reproducible for any worker count.

use std::fmt;

/// Exploit probability (in percent) used when a portfolio strategy is
/// written without one (`portfolio:N`).
pub const DEFAULT_EXPLOIT_PERCENT: u32 = 50;

/// Candidate-pool size used when `figP` runs without an explicit
/// `--strategy portfolio:N`.
pub const DEFAULT_PORTFOLIO_CANDIDATES: u32 = 8;

/// The search driving loop scheduling.
///
/// # Examples
///
/// The textual form round-trips through [`SchedulerStrategy::parse`] and
/// [`SchedulerStrategy::label`] (the CSV column value):
///
/// ```
/// use dms_sched::SchedulerStrategy;
///
/// assert_eq!(SchedulerStrategy::default(), SchedulerStrategy::Dms);
/// assert_eq!(SchedulerStrategy::parse("dms").unwrap(), SchedulerStrategy::Dms);
/// assert_eq!(
///     SchedulerStrategy::parse("beam:4").unwrap(),
///     SchedulerStrategy::Beam { width: 4 },
/// );
/// let p = SchedulerStrategy::parse("portfolio:8").unwrap();
/// assert_eq!(p, SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 });
/// assert_eq!(p.label(), "portfolio:8:50");
/// assert_eq!(SchedulerStrategy::parse(&p.label()).unwrap(), p);
/// assert!(SchedulerStrategy::parse("beam:0").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerStrategy {
    /// The paper's deterministic DMS heuristic (the default; bit-identical
    /// to the pre-strategy scheduler).
    #[default]
    Dms,
    /// Beam search: keep the best `width` partial placements per scheduling
    /// step. Deterministic. `width == 1` degenerates to a greedy search
    /// that still branches only on the single best placement.
    Beam {
        /// Partial placements kept alive per scheduling step (≥ 1).
        width: u32,
    },
    /// Explore/exploit portfolio of randomized-priority DMS candidates.
    ///
    /// Candidate 0 is the plain deterministic heuristic; candidates
    /// `1..n_candidates` perturb the height-based priority order with
    /// jitter drawn from a per-candidate generator seeded from
    /// (loop name, candidate index). With probability
    /// `exploit_percent / 100` a candidate *exploits* (jitter only breaks
    /// near-ties), otherwise it *explores* (jitter large enough to reorder
    /// whole height bands).
    Portfolio {
        /// Total candidates including the deterministic baseline (≥ 1).
        n_candidates: u32,
        /// Probability, in percent (0–100), that a randomized candidate
        /// exploits rather than explores.
        exploit_percent: u32,
    },
}

impl SchedulerStrategy {
    /// Parses the CLI/CSV spelling: `dms`, `beam:W`, `portfolio:N` or
    /// `portfolio:N:E` (`E` = exploit percent, default
    /// [`DEFAULT_EXPLOIT_PERCENT`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names, missing or
    /// malformed numbers, `width`/`n_candidates` of 0, or an exploit
    /// percentage above 100.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let arg = |p: Option<&str>, what: &str| -> Result<u32, String> {
            let v = p.ok_or_else(|| format!("{head} needs {what}, e.g. {head}:4"))?;
            v.parse::<u32>().map_err(|_| format!("bad {what} {v:?} in strategy {s:?}"))
        };
        let strategy = match head {
            "dms" => SchedulerStrategy::Dms,
            "beam" => SchedulerStrategy::Beam { width: arg(parts.next(), "a beam width")? },
            "portfolio" => {
                let n_candidates = arg(parts.next(), "a candidate count")?;
                let exploit_percent = match parts.next() {
                    Some(e) => arg(Some(e), "an exploit percentage")?,
                    None => DEFAULT_EXPLOIT_PERCENT,
                };
                SchedulerStrategy::Portfolio { n_candidates, exploit_percent }
            }
            other => {
                return Err(format!(
                    "unknown strategy {other:?}: expected dms, beam:W or portfolio:N[:E]"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("trailing arguments in strategy {s:?}"));
        }
        strategy.validate()?;
        Ok(strategy)
    }

    /// Checks the numeric parameters (also called by [`Self::parse`]).
    ///
    /// # Errors
    ///
    /// Returns a message if the beam width or candidate count is 0 or the
    /// exploit percentage exceeds 100.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchedulerStrategy::Dms => Ok(()),
            SchedulerStrategy::Beam { width: 0 } => {
                Err("beam width must be at least 1".to_string())
            }
            SchedulerStrategy::Beam { .. } => Ok(()),
            SchedulerStrategy::Portfolio { n_candidates: 0, .. } => {
                Err("a portfolio needs at least 1 candidate".to_string())
            }
            SchedulerStrategy::Portfolio { exploit_percent, .. } if exploit_percent > 100 => {
                Err(format!("exploit percentage {exploit_percent} exceeds 100"))
            }
            SchedulerStrategy::Portfolio { .. } => Ok(()),
        }
    }

    /// The canonical label used in CSV columns and log lines. Parses back
    /// to the same strategy.
    pub fn label(&self) -> String {
        match *self {
            SchedulerStrategy::Dms => "dms".to_string(),
            SchedulerStrategy::Beam { width } => format!("beam:{width}"),
            SchedulerStrategy::Portfolio { n_candidates, exploit_percent } => {
                format!("portfolio:{n_candidates}:{exploit_percent}")
            }
        }
    }
}

impl fmt::Display for SchedulerStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_canonical_label() {
        for s in [
            SchedulerStrategy::Dms,
            SchedulerStrategy::Beam { width: 1 },
            SchedulerStrategy::Beam { width: 16 },
            SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 },
            SchedulerStrategy::Portfolio { n_candidates: 1, exploit_percent: 0 },
            SchedulerStrategy::Portfolio { n_candidates: 32, exploit_percent: 100 },
        ] {
            assert_eq!(SchedulerStrategy::parse(&s.label()), Ok(s), "{s}");
        }
    }

    #[test]
    fn parse_defaults_the_exploit_percentage() {
        assert_eq!(
            SchedulerStrategy::parse("portfolio:12"),
            Ok(SchedulerStrategy::Portfolio {
                n_candidates: 12,
                exploit_percent: DEFAULT_EXPLOIT_PERCENT
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_strategies() {
        for bad in [
            "",
            "ims",
            "beam",
            "beam:",
            "beam:x",
            "beam:0",
            "beam:2:3",
            "portfolio",
            "portfolio:0",
            "portfolio:4:101",
            "portfolio:4:50:7",
            "dms:1",
        ] {
            assert!(SchedulerStrategy::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn display_matches_label() {
        let s = SchedulerStrategy::Beam { width: 3 };
        assert_eq!(s.to_string(), s.label());
    }
}
