//! # dms-experiments — Reproduction of the paper's evaluation
//!
//! The paper's evaluation (section 4) contains three figures, all derived
//! from scheduling the same loop suite on machines of 1–10 clusters and on
//! the equivalent unclustered machines:
//!
//! * **Figure 4** — fraction of loops whose II increases due to DMS
//!   partitioning, per cluster count ([`fig4`]);
//! * **Figure 5** — total dynamic cycle count (relative) for Set 1 (all
//!   loops) and Set 2 (loops without recurrences), clustered vs unclustered,
//!   over 3–30 functional units ([`fig5`]);
//! * **Figure 6** — IPC for the same four series ([`fig6`]).
//!
//! [`figt`] adds a beyond-the-paper figure comparing achievable II across
//! interconnect topologies (ring, chordal ring, bus, crossbar) through the
//! `dms_machine::Topology` API, [`figc`] replays those schedules under
//! contention-accurate link timing (`dms_sim::contended_replay`) to report
//! the II each fabric actually sustains, and [`figp`] another comparing
//! portfolio scheduler search (`dms_core::SchedulerStrategy`) against the
//! single deterministic heuristic.
//!
//! [`runner`] produces the raw per-loop measurements shared by all figures
//! (fanning the (loop × cluster-count) grid out across worker threads with
//! deterministic, worker-count-independent results — see
//! [`runner::measure_loops_with_stats`]). Every scheduler invocation goes
//! through the `dms-service` crate's [`ScheduleService`], whose
//! content-addressed cache makes repeated sweeps against a resident service
//! (the `dms-experiments serve` subcommand) answer from memory.
//! [`ablation`] adds the two ablations motivated by the paper's §5
//! discussion (extra Copy units; chain-direction policy), and [`report`]
//! renders everything as aligned text tables and CSV.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod figc;
pub mod figp;
pub mod figt;
pub mod report;
pub mod runner;

pub use dms_service::ScheduleService;
pub use fig4::{figure4, Fig4Row};
pub use fig5::{figure5, Fig5Row};
pub use fig6::{figure6, Fig6Row};
pub use figc::{figure_c, FigCRow};
pub use figp::{figure_p, FigPRow, FIGP_CLUSTERS};
pub use figt::{figure_t, FigTRow, FIGT_CLUSTERS, FIGT_TOPOLOGIES};
pub use runner::{
    measure_suite, measure_suite_with_stats, measure_suite_with_stats_on, ExperimentConfig,
    LoopMeasurement, SweepStats,
};
