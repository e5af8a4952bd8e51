//! The DMS driver: II search, the three placement strategies, the
//! register-pressure relaxation loop, and the strategy dispatch (plain DMS,
//! beam search, explore/exploit portfolio).

use crate::chains::{self, ChainPolicy};
use crate::state::SchedulerState;
use dms_ir::transform::convert_to_single_use;
use dms_ir::{Ddg, Loop, OpId};
use dms_machine::{ClusterId, FuKind, MachineConfig};
use dms_sched::ims::default_max_ii;
use dms_sched::mii::{mii, MiiBreakdown};
use dms_sched::pressure::QueuePressure;
use dms_sched::schedule::{SchedStats, Schedule, ScheduleError, ScheduleResult};
use dms_sched::strategy::SchedulerStrategy;
use dms_telemetry::{SchedEvent, Telemetry};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// When to apply the single-use (copy-insertion) lifetime conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleUsePolicy {
    /// Apply it only when the target machine has more than one cluster (the
    /// paper's setting: the conversion exists because of the single-read
    /// CQRFs, which a single-cluster machine does not have).
    ClusteredOnly,
    /// Always apply it, regardless of the machine.
    Always,
    /// Never apply it (useful for ablations; incorrect for real clustered
    /// targets with more than two immediate uses of a value).
    Never,
}

/// How DMS uses the incremental queue-register-pressure estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PressureMode {
    /// The default: pressure breaks placement ties towards unsaturated
    /// queues, and a schedule whose final pressure exceeds any LRF/CQRF
    /// capacity is rejected and retried at II + 1 (the *pressure-relaxation
    /// loop* — a larger II shortens every queue depth, `ceil(length / II)`).
    #[default]
    Aware,
    /// Ablation/regression mode: schedule exactly as the pressure-blind
    /// algorithm did — no tie-breaking, no capacity retries. Schedules that
    /// fit every structural constraint but overflow a queue file are
    /// returned as-is and fail in `dms_regalloc::allocate`.
    Ignore,
}

/// Tuning parameters of the DMS search.
///
/// # Examples
///
/// The default configuration runs the paper's deterministic heuristic; a
/// [`SchedulerStrategy`] widens the search without ever losing to it:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig, SchedulerStrategy};
/// use dms_ir::kernels;
/// use dms_machine::MachineConfig;
///
/// let machine = MachineConfig::paper_clustered(4);
/// let config = DmsConfig {
///     strategy: SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 },
///     ..DmsConfig::default()
/// };
/// let out = dms_schedule(&kernels::fir(8, 256), &machine, &config).unwrap();
/// // The portfolio embeds the deterministic heuristic as candidate 0 and
/// // only ever replaces it with a Pareto improvement.
/// assert!(out.ii() <= out.baseline_ii);
/// assert!(out.ii() >= out.stats.mii.unwrap().mii());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmsConfig {
    /// Scheduling budget per candidate II, as a multiple of the number of
    /// operations.
    pub budget_ratio: u32,
    /// Upper limit of the II search (`None` derives a safe default).
    pub max_ii: Option<u32>,
    /// How chains pick between the two ring directions.
    pub chain_policy: ChainPolicy,
    /// When to apply the single-use conversion.
    pub single_use: SingleUsePolicy,
    /// Whether scheduling is register-pressure-aware.
    pub pressure: PressureMode,
    /// An II a closely related configuration (e.g. the neighbouring cluster
    /// count of a sweep) is known to achieve. The search itself is
    /// untouched — it still scans every II ascending from the MII, so
    /// results are seed-independent by construction — but the derived
    /// search *ceiling* is raised to at least the seed, protecting
    /// edge-case loops whose default ceiling would sit below an II a
    /// neighbouring configuration proved reachable.
    pub ii_seed: Option<u32>,
    /// Which search drives scheduling: the deterministic heuristic (the
    /// default), a beam over strategy-1 placements, or an explore/exploit
    /// portfolio of jittered-priority candidates. The non-default searches
    /// schedule the plain heuristic first and only keep a challenger that
    /// Pareto-dominates it on (II, queue pressure, code size).
    pub strategy: SchedulerStrategy,
}

impl Default for DmsConfig {
    fn default() -> Self {
        DmsConfig {
            budget_ratio: 32,
            max_ii: None,
            chain_policy: ChainPolicy::MaxFreeSlots,
            single_use: SingleUsePolicy::ClusteredOnly,
            pressure: PressureMode::Aware,
            ii_seed: None,
            strategy: SchedulerStrategy::Dms,
        }
    }
}

/// The result of a DMS run: the schedule plus the provenance of the
/// pressure-relaxation loop that produced it.
///
/// Dereferences to the inner [`ScheduleResult`], so existing consumers
/// (`validate_schedule`, `dms_regalloc::allocate`, `dms::verify_schedule`,
/// `.ii()`, `.stats`, …) keep working unchanged on the outcome.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The accepted schedule (including the transformed DDG and statistics).
    pub result: ScheduleResult,
    /// II of the first structurally-valid schedule the search found. Equal
    /// to `self.ii()` unless the pressure-relaxation loop rejected that
    /// schedule for exceeding a queue-file capacity.
    pub first_ii: u32,
    /// Structurally-valid schedules rejected because a queue file exceeded
    /// its capacity, each answered by a retry at the next II. Always 0 in
    /// [`PressureMode::Ignore`].
    pub pressure_retries: u32,
    /// Final incremental pressure estimate of the accepted schedule; equals
    /// the register allocator's per-queue requirements.
    pub pressure: QueuePressure,
    /// II the plain deterministic heuristic achieves on this loop. Equal to
    /// `self.ii()` under [`SchedulerStrategy::Dms`]; under beam/portfolio it
    /// is the reference point the winning candidate Pareto-dominates. When
    /// the plain heuristic fails outright and a randomized candidate rescues
    /// the loop, this is the rescuer's own II.
    pub baseline_ii: u32,
    /// Challenger searches attempted beyond the deterministic baseline
    /// (0 under [`SchedulerStrategy::Dms`], 1 for beam, `n_candidates - 1`
    /// for a portfolio).
    pub candidates_run: u32,
    /// Index of the candidate whose schedule was kept: 0 is the
    /// deterministic baseline, `i >= 1` the i-th challenger.
    pub winner_candidate: u32,
}

impl std::ops::Deref for ScheduleOutcome {
    type Target = ScheduleResult;

    fn deref(&self) -> &ScheduleResult {
        &self.result
    }
}

impl std::ops::DerefMut for ScheduleOutcome {
    fn deref_mut(&mut self) -> &mut ScheduleResult {
        &mut self.result
    }
}

impl ScheduleOutcome {
    /// Consumes the outcome, returning the plain schedule result.
    pub fn into_result(self) -> ScheduleResult {
        self.result
    }
}

/// Schedules a loop with DMS on the given (usually clustered) machine.
///
/// The II search accepts the first structurally-valid schedule whose queue
/// register pressure also fits the machine's LRF/CQRF capacities; a schedule
/// that satisfies every dependence, resource and communication constraint
/// but would fail register allocation is rejected and the search retries at
/// II + 1 (counted in [`ScheduleOutcome::pressure_retries`]). Set
/// [`DmsConfig::pressure`] to [`PressureMode::Ignore`] for the historical
/// pressure-blind behaviour.
///
/// Under [`SchedulerStrategy::Beam`] or [`SchedulerStrategy::Portfolio`] the
/// deterministic heuristic runs first as the incumbent; challengers search
/// only up to the incumbent's II and replace it only on a strict Pareto
/// improvement over (II, total queue pressure, code size), so the returned
/// schedule is never worse than the plain heuristic's. If the plain
/// heuristic fails entirely, challengers search the full II range and the
/// first success becomes the incumbent.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the machine lacks a
/// required functional-unit class and [`ScheduleError::IiLimitReached`] if no
/// schedule both fitting the queue files and satisfying the structural
/// constraints is found up to the II limit.
///
/// # Panics
///
/// Panics if [`DmsConfig::strategy`] fails
/// [`SchedulerStrategy::validate`] (a zero beam width or candidate count, or
/// an exploit percentage above 100) — a programming error, since every CLI
/// entry point validates at parse time.
pub fn dms_schedule(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    if let Err(msg) = config.strategy.validate() {
        panic!("invalid scheduler strategy: {msg}");
    }
    let prep = prepare(l, machine, config)?;
    let plain = run_search(l, machine, config, &prep, None, &mut SearchMode::Deterministic);
    let baseline_ii = plain.as_ref().ok().map(|o| o.ii());
    let (outcome, candidates_run, winner) = match config.strategy {
        SchedulerStrategy::Dms => (plain, 0, 0),
        SchedulerStrategy::Beam { width } => {
            let (outcome, winner) = run_challengers(plain, 1, |_, cap| {
                run_search(l, machine, config, &prep, cap, &mut SearchMode::Beam { width })
            });
            (outcome, 1, winner)
        }
        SchedulerStrategy::Portfolio { n_candidates, exploit_percent } => {
            let challengers = n_candidates.saturating_sub(1);
            let (outcome, winner) = run_challengers(plain, challengers, |i, cap| {
                let mut rng = StdRng::seed_from_u64(candidate_seed(&l.name, i));
                let explore = !rng.gen_bool(f64::from(exploit_percent) / 100.0);
                run_search(
                    l,
                    machine,
                    config,
                    &prep,
                    cap,
                    &mut SearchMode::Jittered { rng, explore },
                )
            });
            (outcome, challengers, winner)
        }
    };
    let mut outcome = outcome?;
    outcome.baseline_ii = baseline_ii.unwrap_or_else(|| outcome.ii());
    outcome.candidates_run = candidates_run;
    outcome.winner_candidate = winner;
    Ok(outcome)
}

/// The strategy-independent preprocessing of a loop: single-use conversion,
/// MII bounds and the per-II scheduling budget. Shared by every candidate of
/// a portfolio so the (deterministic) transforms run once per loop.
struct Prepared {
    ddg: Ddg,
    copies: u64,
    bounds: MiiBreakdown,
    start_ii: u32,
    max_ii: u32,
    budget: u64,
}

fn prepare(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
) -> Result<Prepared, ScheduleError> {
    let mut ddg = l.ddg.clone();
    let apply_single_use = match config.single_use {
        SingleUsePolicy::Always => true,
        SingleUsePolicy::Never => false,
        SingleUsePolicy::ClusteredOnly => machine.is_clustered(),
    };
    let copies = if apply_single_use {
        convert_to_single_use(&mut ddg, machine.latency()) as u64
    } else {
        0
    };
    let bounds = mii(&ddg, machine)?;
    let start_ii = bounds.mii();
    let max_ii = config
        .max_ii
        .unwrap_or_else(|| default_max_ii(&ddg, machine, start_ii))
        .max(config.ii_seed.unwrap_or(0));
    let budget = config.budget_ratio as u64 * ddg.num_live_ops().max(1) as u64;
    Ok(Prepared { ddg, copies, bounds, start_ii, max_ii, budget })
}

/// How a single candidate attempts each II of the search.
enum SearchMode {
    /// The paper's deterministic heuristic.
    Deterministic,
    /// The deterministic heuristic with jittered priorities (a portfolio
    /// challenger). The RNG persists across the candidate's II attempts, so
    /// each attempt draws a fresh perturbation.
    Jittered { rng: StdRng, explore: bool },
    /// Beam search over strategy-1 placements.
    Beam { width: u32 },
}

/// The II search with the pressure-relaxation loop, for one candidate.
/// `ii_cap` (the incumbent's II, for challengers) tightens the search
/// ceiling: a challenger at a higher II can never Pareto-dominate.
fn run_search(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
    prep: &Prepared,
    ii_cap: Option<u32>,
    mode: &mut SearchMode,
) -> Result<ScheduleOutcome, ScheduleError> {
    let max_ii = ii_cap.map_or(prep.max_ii, |cap| prep.max_ii.min(cap));
    let telemetry = Telemetry::current();
    let mut attempts = 0;
    let mut first_ii = None;
    let mut pressure_retries = 0u32;
    for ii in prep.start_ii..=max_ii {
        attempts += 1;
        telemetry.event(SchedEvent::IiAttemptStarted { ii });
        // Chains are steered away from congested queue files only once a
        // capacity rejection has proven that congestion binds for this
        // loop; until then every attempt follows the paper's criterion
        // exactly.
        let steer_chains = pressure_retries > 0;
        let attempt = match mode {
            SearchMode::Deterministic => {
                try_dms(&prep.ddg, machine, ii, prep.budget, config, steer_chains, None)
            }
            SearchMode::Jittered { rng, explore } => try_dms(
                &prep.ddg,
                machine,
                ii,
                prep.budget,
                config,
                steer_chains,
                Some((rng, *explore)),
            ),
            SearchMode::Beam { width } => {
                try_beam(&prep.ddg, machine, ii, prep.budget, config, steer_chains, *width)
            }
        };
        let Some((out_ddg, schedule, mut stats, pressure)) = attempt else {
            telemetry.event(SchedEvent::IiAttemptFailed { ii });
            continue;
        };
        let first_ii = *first_ii.get_or_insert(ii);
        // Pressure relaxation: a structurally-valid schedule that overflows
        // a queue file would fail register allocation — reject it here and
        // retry one II higher, where every lifetime needs fewer in-flight
        // instances.
        if config.pressure == PressureMode::Aware && pressure.capacity_excess(machine).is_some() {
            pressure_retries += 1;
            telemetry.event(SchedEvent::PressureRetry { ii });
            continue;
        }
        stats.mii = Some(prep.bounds);
        stats.copies_inserted = prep.copies;
        stats.ii_attempts = attempts;
        return Ok(ScheduleOutcome {
            result: ScheduleResult { loop_name: l.name.clone(), ddg: out_ddg, schedule, stats },
            first_ii,
            pressure_retries,
            pressure,
            baseline_ii: ii,
            candidates_run: 0,
            winner_candidate: 0,
        });
    }
    if pressure_retries > 0 {
        // Capacity rejections contributed to exhausting the II range —
        // surface them so undersized queue files (e.g. an aggressive
        // --cqrf-capacity) are diagnosable from the error alone.
        return Err(ScheduleError::PressureLimitReached {
            limit: max_ii,
            retries: pressure_retries,
        });
    }
    Err(ScheduleError::IiLimitReached { limit: max_ii })
}

/// Runs `challengers` searches against an incumbent, keeping a challenger
/// only when it strictly Pareto-dominates the incumbent on
/// (II, pressure, code size) — or when there is no incumbent to beat.
/// Returns the final outcome and the index of the winning candidate
/// (0 = the deterministic baseline).
fn run_challengers(
    mut incumbent: Result<ScheduleOutcome, ScheduleError>,
    challengers: u32,
    mut run: impl FnMut(u32, Option<u32>) -> Result<ScheduleOutcome, ScheduleError>,
) -> (Result<ScheduleOutcome, ScheduleError>, u32) {
    let telemetry = Telemetry::current();
    let mut winner = 0u32;
    for i in 1..=challengers {
        let cap = incumbent.as_ref().ok().map(|o| o.ii());
        let Ok(challenger) = run(i, cap) else {
            continue;
        };
        let replaces = match &incumbent {
            Ok(best) => pareto_beats(&challenger, best),
            Err(_) => true,
        };
        if replaces {
            incumbent = Ok(challenger);
            winner = i;
            telemetry.event(SchedEvent::CandidateWon { candidate: i });
        }
    }
    (incumbent, winner)
}

/// The minimization objectives of the portfolio/beam selection: II first in
/// spirit, but compared as a Pareto triple, never lexicographically.
fn score(o: &ScheduleOutcome) -> (u32, u32, u64) {
    (o.ii(), o.pressure.total(), code_size_words(&o.schedule))
}

/// Emitted VLIW words of the schedule, independent of the trip count:
/// prologue and epilogue of `stage_count - 1` stages each, plus the kernel,
/// each `ii` words long.
fn code_size_words(s: &Schedule) -> u64 {
    (2 * (u64::from(s.stage_count()) - 1) + 1) * u64::from(s.ii())
}

/// Strict Pareto dominance: no objective worse, at least one strictly
/// better. Ties keep the incumbent, so equal-quality challengers never
/// displace the deterministic baseline.
fn pareto_beats(challenger: &ScheduleOutcome, incumbent: &ScheduleOutcome) -> bool {
    let (a, b) = (score(challenger), score(incumbent));
    a != b && a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2
}

/// The jitter seed of portfolio candidate `candidate` on the named loop:
/// FNV-1a over the loop name, mixed with the candidate index. A pure
/// function of (loop, candidate), so sweeps are byte-reproducible for any
/// worker count and work-stealing order.
fn candidate_seed(loop_name: &str, candidate: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in loop_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ u64::from(candidate).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Draws one priority perturbation per DDG slot. Exploit candidates only
/// break near-ties (jitter in {0, 1}); explore candidates may reorder whole
/// height bands (jitter up to a quarter of the height span).
fn draw_jitter(rng: &mut StdRng, heights: &[i64], explore: bool) -> Vec<i64> {
    let span = heights.iter().copied().max().unwrap_or(0).max(0);
    let bound = if explore { (span / 4).max(2) } else { 1 };
    heights.iter().map(|_| rng.gen_range(0..=bound)).collect()
}

/// One II attempt of the plain (optionally jittered) heuristic. Returns
/// `None` when the budget is exhausted.
fn try_dms(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    budget: u64,
    config: &DmsConfig,
    steer_chains: bool,
    jitter: Option<(&mut StdRng, bool)>,
) -> Option<(Ddg, Schedule, SchedStats, QueuePressure)> {
    let mut st = SchedulerState::new(ddg.clone(), machine, ii);
    st.pressure_aware = config.pressure == PressureMode::Aware;
    st.chain_steering = st.pressure_aware && steer_chains;
    if let Some((rng, explore)) = jitter {
        st.jitter = draw_jitter(rng, &st.height, explore);
    }
    let mut remaining = budget;

    while let Some(op) = st.pop_highest_priority() {
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        st.stats.budget_used += 1;

        if place_strategy1(&mut st, op) {
            st.stats.strategy1_placements += 1;
            continue;
        }
        if place_strategy2(&mut st, op, config.chain_policy) {
            st.stats.strategy2_placements += 1;
            continue;
        }
        place_strategy3(&mut st, op);
        st.stats.strategy3_placements += 1;
    }

    Some(st.into_parts())
}

/// One II attempt of the beam search: keep the best `width` partial
/// placements per scheduling step. Branching happens only where the
/// heuristic actually has slack — the (time, cluster) alternatives of
/// strategy 1; chain building and forced placement stay single-choice.
/// Returns `None` when the shared budget pool is exhausted before any
/// branch completes.
fn try_beam(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    budget: u64,
    config: &DmsConfig,
    steer_chains: bool,
    width: u32,
) -> Option<(Ddg, Schedule, SchedStats, QueuePressure)> {
    let width = width.max(1) as usize;
    let mut seed = SchedulerState::new(ddg.clone(), machine, ii);
    seed.pressure_aware = config.pressure == PressureMode::Aware;
    seed.chain_steering = seed.pressure_aware && steer_chains;
    let mut beam = vec![seed];
    // One pool for the whole beam, `width` single-search budgets deep: a
    // wide beam explores more but never does unbounded extra work.
    let mut remaining = budget.saturating_mul(width as u64);

    while !beam.iter().all(|st| st.unscheduled.is_empty()) {
        if remaining == 0 {
            // Out of budget: settle for the branches that did finish.
            beam.retain(|st| st.unscheduled.is_empty());
            break;
        }
        let mut next: Vec<SchedulerState> = Vec::with_capacity(beam.len() * 2);
        for mut st in beam {
            let Some(op) = st.pop_highest_priority() else {
                // Already complete: carried along as a finished candidate.
                next.push(st);
                continue;
            };
            if remaining == 0 {
                continue;
            }
            remaining -= 1;
            st.stats.budget_used += 1;
            let options = beam_strategy1_options(&st, op, width);
            if let Some((&first, rest)) = options.split_first() {
                for &(time, cluster) in rest {
                    let mut branch = st.clone();
                    branch.place(op, time, cluster);
                    branch.displace_conflicts(op, time, cluster);
                    branch.stats.strategy1_placements += 1;
                    next.push(branch);
                }
                let (time, cluster) = first;
                st.place(op, time, cluster);
                st.displace_conflicts(op, time, cluster);
                st.stats.strategy1_placements += 1;
            } else if place_strategy2(&mut st, op, config.chain_policy) {
                st.stats.strategy2_placements += 1;
            } else {
                place_strategy3(&mut st, op);
                st.stats.strategy3_placements += 1;
            }
            next.push(st);
        }
        // Prune to the `width` most promising branches: progress first
        // (fewest unscheduled ops), then schedule span (the II-slack proxy
        // at this fixed II), then queue pressure, then churn. The sort is
        // stable, so equal branches keep their deterministic insertion
        // order.
        next.sort_by_cached_key(|st| {
            (st.unscheduled.len(), st.schedule.max_time(), st.pressure.total(), st.stats.evictions)
        });
        next.truncate(width);
        beam = next;
    }

    beam.into_iter()
        .min_by_key(|st| (st.pressure.total(), st.schedule.max_time()))
        .map(SchedulerState::into_parts)
}

/// The strategy-1 placements a beam branch may take: for each preferred
/// cluster the first free slot in the scheduling window, best `width` kept,
/// ordered so that `options[0]` is exactly the slot plain strategy 1 picks
/// (earliest time, then cluster preference).
fn beam_strategy1_options(st: &SchedulerState, op: OpId, width: usize) -> Vec<(u32, ClusterId)> {
    let order = preferred_clusters(st, op);
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    let (min_time, max_time) = st.window(op);
    let mut options: Vec<(u32, ClusterId)> = Vec::with_capacity(order.len());
    for &c in &order {
        if let Some(t) = (min_time..=max_time).find(|&t| st.mrt.has_free(t, c, fu)) {
            options.push((t, c));
        }
    }
    // Stable by time: ties keep the preferred_clusters order, matching the
    // time-major scan of place_strategy1.
    options.sort_by_key(|&(t, _)| t);
    options.truncate(width);
    options
}

/// The communication-compatible clusters of `op`, ordered by preference:
/// clusters already hosting scheduled flow neighbours first (the value stays
/// in the LRF and the partition stays compact), then the least loaded
/// cluster for the operation's unit class. In [`PressureMode::Aware`] runs,
/// remaining ties go to the cluster whose queue files towards the scheduled
/// neighbours hold the fewest live values, steering traffic away from
/// saturated CQRFs/LRFs.
fn preferred_clusters(st: &SchedulerState, op: OpId) -> Vec<ClusterId> {
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    let neighbours = st.scheduled_flow_neighbours(op);
    let mut order = st.communication_compatible_clusters(op);
    // cached: cluster_pressure_cost walks op's edges, so evaluate it once
    // per cluster rather than once per comparison.
    order.sort_by_cached_key(|&c| {
        let hosted = neighbours.iter().filter(|&&n| n == c).count();
        let pressure = if st.pressure_aware { st.cluster_pressure_cost(op, c) } else { 0 };
        (std::cmp::Reverse(hosted), std::cmp::Reverse(st.mrt.free_slots(c, fu)), pressure, c)
    });
    order
}

/// Strategy 1: place `op` in a *free* slot of a cluster that is directly
/// connected to every scheduled flow neighbour. Returns `false` if no such
/// cluster exists or if every such cluster is out of free units across the
/// whole scheduling window (the resource-blocked case, handled by chains or
/// forced placement).
fn place_strategy1(st: &mut SchedulerState, op: OpId) -> bool {
    let order = preferred_clusters(st, op);
    if order.is_empty() {
        return false;
    }
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    let (min_time, max_time) = st.window(op);
    let mut found = None;
    'outer: for t in min_time..=max_time {
        for &c in &order {
            if st.mrt.has_free(t, c, fu) {
                found = Some((t, c));
                break 'outer;
            }
        }
    }
    let Some((time, cluster)) = found else {
        return false;
    };
    st.place(op, time, cluster);
    st.displace_conflicts(op, time, cluster);
    true
}

/// Strategy 2: build chains of moves towards the too-distant predecessors
/// and place `op` in the chosen cluster (which must still have a free slot
/// for it). Returns `false` if no viable chain combination exists. This
/// strategy handles both the communication-conflict case (no directly
/// connected cluster exists at all) and the resource-blocked case (the
/// directly connected clusters have no free unit, but a farther cluster
/// reachable through moves does).
fn place_strategy2(st: &mut SchedulerState, op: OpId, policy: ChainPolicy) -> bool {
    let Some(option) = chains::best_option(st, op, policy) else {
        return false;
    };
    for plan in &option.chains {
        st.commit_chain(plan.edge, &plan.moves);
    }
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    // The chains were only built if their Copy slots were free; the operation
    // itself may still have to evict a resource conflict (paper, figure 2,
    // strategy 2: "If necessary, unschedule other ops due to ... Resource
    // conflicts").
    let (min_time, max_time) = st.window(op);
    let free = (min_time..=max_time).find(|&t| st.mrt.has_free(t, option.cluster, fu));
    let time = free.unwrap_or(min_time);
    if free.is_none() {
        st.make_room(op, time, option.cluster);
    }
    st.place(op, time, option.cluster);
    st.displace_conflicts(op, time, option.cluster);
    true
}

/// Strategy 3: forced IMS-style placement with backtracking. The cluster is
/// "arbitrarily chosen" (paper's wording); this implementation prefers a
/// communication-compatible cluster, then the cluster of the most critical
/// scheduled predecessor, then the least loaded cluster. Eviction here also
/// covers communication conflicts, and evicting any part of a chain
/// dismantles the whole chain.
fn place_strategy3(st: &mut SchedulerState, op: OpId) {
    let cluster = strategy3_cluster(st, op);
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    let (min_time, max_time) = st.window(op);
    let free = (min_time..=max_time).find(|&t| st.mrt.has_free(t, cluster, fu));
    let time = free.unwrap_or(min_time);
    if free.is_none() {
        st.make_room(op, time, cluster);
    }
    st.place(op, time, cluster);
    st.displace_conflicts(op, time, cluster);
}

/// The cluster used by strategy 3.
fn strategy3_cluster(st: &SchedulerState, op: OpId) -> ClusterId {
    if let Some(&c) = preferred_clusters(st, op).first() {
        return c;
    }
    let best_pred = st
        .ddg
        .flow_preds(op)
        .filter(|(_, e)| e.src != op)
        .filter_map(|(_, e)| st.schedule.get(e.src).map(|p| (st.height[e.src.index()], p.cluster)))
        .max_by_key(|&(h, c)| (h, std::cmp::Reverse(c)));
    if let Some((_, cluster)) = best_pred {
        return cluster;
    }
    let fu = FuKind::for_op(st.ddg.op(op).kind);
    st.topology()
        .iter()
        .max_by_key(|&c| {
            let pressure = if st.pressure_aware { st.cluster_pressure_cost(op, c) } else { 0 };
            (st.mrt.free_slots(c, fu), std::cmp::Reverse(pressure), std::cmp::Reverse(c))
        })
        .unwrap_or(ClusterId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{kernels, transform, LoopBuilder, Operand};
    use dms_sched::ims::{ims_schedule, ImsConfig};
    use dms_sched::validate::validate_schedule;

    fn check(l: &dms_ir::Loop, machine: &MachineConfig, config: &DmsConfig) -> ScheduleOutcome {
        let r = dms_schedule(l, machine, config)
            .unwrap_or_else(|e| panic!("{} failed to schedule: {e}", l.name));
        let violations = validate_schedule(&r.ddg, machine, &r.schedule);
        assert!(violations.is_empty(), "{}: schedule has violations: {:?}", l.name, violations);
        assert!(r.ddg.validate().is_ok(), "{}: DDG corrupted by scheduling", l.name);
        r
    }

    #[test]
    fn schedules_every_kernel_on_every_cluster_count() {
        for l in kernels::all(64) {
            for clusters in [1, 2, 3, 4, 6, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = check(&l, &m, &DmsConfig::default());
                let mii = r.stats.mii.unwrap().mii();
                assert!(r.ii() >= mii, "{}: II {} below MII {}", l.name, r.ii(), mii);
            }
        }
    }

    #[test]
    fn single_cluster_dms_matches_ims() {
        // On one cluster DMS degenerates to IMS (no copies, no chains).
        for l in kernels::all(64) {
            let m = MachineConfig::paper_clustered(1);
            let d = check(&l, &m, &DmsConfig::default());
            let i = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
            assert_eq!(d.ii(), i.ii(), "{}: DMS and IMS must agree on 1 cluster", l.name);
            assert_eq!(d.stats.copies_inserted, 0);
            assert_eq!(d.stats.moves_inserted, 0);
        }
    }

    #[test]
    fn two_and_three_cluster_machines_never_need_moves() {
        // Every pair of clusters is directly connected, so no communication
        // conflict can arise and strategy 2/3 should never fire.
        for l in kernels::all(64) {
            for clusters in [2, 3] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = check(&l, &m, &DmsConfig::default());
                assert_eq!(r.stats.moves_inserted, 0, "{}: unexpected moves", l.name);
                assert_eq!(r.stats.strategy2_placements, 0);
            }
        }
    }

    #[test]
    fn useful_ops_preserved_by_scheduling() {
        let l = kernels::fir(8, 256);
        let m = MachineConfig::paper_clustered(4);
        let r = check(&l, &m, &DmsConfig::default());
        assert_eq!(r.useful_ops(), l.useful_ops());
    }

    #[test]
    fn wide_unrolled_loop_spreads_across_clusters() {
        let l = transform::unroll(&kernels::daxpy(1024), 8);
        let m = MachineConfig::paper_clustered(8);
        let r = check(&l, &m, &DmsConfig::default());
        let used: std::collections::HashSet<_> =
            r.schedule.iter().map(|(_, s)| s.cluster).collect();
        assert!(
            used.len() >= 4,
            "a 40-op loop should use several of the 8 clusters, used {}",
            used.len()
        );
    }

    #[test]
    fn chains_appear_on_wide_machines_with_spread_producers() {
        // A reduction over many loads forces values to cross the ring: on an
        // 8-cluster machine at least one of these loops needs moves or the
        // strategy-3 fallback.
        let mut any_conflict_resolution = false;
        for l in [kernels::fir(16, 256), transform::unroll(&kernels::dot_product(1024), 8)] {
            let m = MachineConfig::paper_clustered(8);
            let r = check(&l, &m, &DmsConfig::default());
            if r.stats.moves_inserted > 0 || r.stats.strategy3_placements > 0 {
                any_conflict_resolution = true;
            }
        }
        assert!(
            any_conflict_resolution,
            "expected at least one loop to exercise strategy 2 or 3 on 8 clusters"
        );
    }

    #[test]
    fn clustered_ii_never_beats_the_unclustered_ideal() {
        for l in kernels::all(64) {
            for clusters in [2, 4, 8] {
                let clustered = MachineConfig::paper_clustered(clusters);
                let unclustered = MachineConfig::unclustered(clusters);
                let d = check(&l, &clustered, &DmsConfig::default());
                let i = ims_schedule(&l, &unclustered, &ImsConfig::default()).unwrap();
                assert!(
                    d.ii() >= i.ii(),
                    "{} on {} clusters: DMS II {} < IMS II {}",
                    l.name,
                    clusters,
                    d.ii(),
                    i.ii()
                );
            }
        }
    }

    #[test]
    fn overhead_on_few_clusters_comes_only_from_copies() {
        // For 2-3 clusters any II increase over the unclustered machine must
        // be attributable to copy pressure, not to moves.
        for l in kernels::all(64) {
            for clusters in [2, 3] {
                let d = check(&l, &MachineConfig::paper_clustered(clusters), &DmsConfig::default());
                let i =
                    ims_schedule(&l, &MachineConfig::unclustered(clusters), &ImsConfig::default())
                        .unwrap();
                if d.ii() > i.ii() {
                    assert!(d.stats.copies_inserted > 0, "{}: overhead without copies", l.name);
                }
                assert_eq!(d.stats.moves_inserted, 0);
            }
        }
    }

    #[test]
    fn shortest_path_policy_also_produces_valid_schedules() {
        let cfg = DmsConfig { chain_policy: ChainPolicy::ShortestPath, ..DmsConfig::default() };
        for l in [kernels::fir(16, 256), kernels::complex_multiply(256)] {
            let m = MachineConfig::paper_clustered(8);
            check(&l, &m, &cfg);
        }
    }

    #[test]
    fn extra_copy_units_never_hurt() {
        let l = kernels::fir(12, 256);
        let one = check(&l, &MachineConfig::paper_clustered(6), &DmsConfig::default());
        let two =
            check(&l, &MachineConfig::paper_clustered_with_copy_units(6, 2), &DmsConfig::default());
        assert!(two.ii() <= one.ii());
    }

    #[test]
    fn unschedulable_machine_is_reported() {
        let l = kernels::daxpy(8);
        let m = MachineConfig::homogeneous(
            2,
            dms_machine::ClusterFus { load_store: 0, add: 1, mul: 1, copy: 1 },
            dms_ir::LatencySpec::default(),
        );
        assert!(matches!(
            dms_schedule(&l, &m, &DmsConfig::default()),
            Err(ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, .. })
        ));
    }

    #[test]
    fn exhausting_the_search_on_capacity_rejections_is_reported_distinctly() {
        // Zero-capacity queue files: every structurally-valid schedule is
        // rejected by the pressure check, so the search must exhaust the II
        // range with a PressureLimitReached (carrying the rejection count),
        // not a bare IiLimitReached — while Ignore mode, which never checks
        // capacities, schedules the same loop fine.
        let l = kernels::daxpy(16);
        let mut m = MachineConfig::paper_clustered(2);
        m.lrf_capacity = 0;
        m.cqrf_capacity = 0;
        let cfg = DmsConfig { max_ii: Some(8), ..DmsConfig::default() };
        match dms_schedule(&l, &m, &cfg) {
            Err(ScheduleError::PressureLimitReached { limit: 8, retries }) => {
                assert!(retries >= 1, "at least one schedule must have been rejected")
            }
            other => panic!("expected PressureLimitReached, got {other:?}"),
        }
        let blind = DmsConfig { pressure: PressureMode::Ignore, ..cfg };
        assert!(dms_schedule(&l, &m, &blind).is_ok(), "Ignore mode never checks capacities");
    }

    #[test]
    fn always_policy_inserts_copies_even_on_one_cluster() {
        let mut b = LoopBuilder::new("fan");
        let a = b.load(Operand::Induction);
        let x = b.add(a.into(), Operand::Immediate(1));
        let y = b.mul(a.into(), Operand::Invariant(0));
        let z = b.sub(a.into(), Operand::Immediate(2));
        b.store(x.into());
        b.store(y.into());
        b.store(z.into());
        let l = b.finish(32);
        let m = MachineConfig::paper_clustered(1);
        let cfg = DmsConfig { single_use: SingleUsePolicy::Always, ..DmsConfig::default() };
        let r = check(&l, &m, &cfg);
        // `a` has three readers -> one copy keeps every fan-out at two.
        assert!(r.stats.copies_inserted >= 1);
    }

    #[test]
    fn plain_strategy_reports_itself_as_its_own_baseline() {
        let l = kernels::fir(8, 256);
        let r = check(&l, &MachineConfig::paper_clustered(4), &DmsConfig::default());
        assert_eq!(r.baseline_ii, r.ii());
        assert_eq!(r.candidates_run, 0);
        assert_eq!(r.winner_candidate, 0);
    }

    #[test]
    fn beam_and_portfolio_never_lose_to_the_plain_heuristic() {
        for l in kernels::all(64) {
            for clusters in [2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let plain = check(&l, &m, &DmsConfig::default());
                for strategy in [
                    SchedulerStrategy::Beam { width: 4 },
                    SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 },
                ] {
                    let cfg = DmsConfig { strategy, ..DmsConfig::default() };
                    let r = check(&l, &m, &cfg);
                    let tag = format!("{} on {clusters} clusters with {strategy}", l.name);
                    assert_eq!(r.baseline_ii, plain.ii(), "{tag}: wrong baseline");
                    // Pareto-dominates-or-equals the plain point on every
                    // objective — the winner is either candidate 0 itself or
                    // a strict improvement.
                    assert!(r.ii() <= plain.ii(), "{tag}: II regressed");
                    assert!(
                        r.pressure.total() <= plain.pressure.total(),
                        "{tag}: pressure regressed"
                    );
                    assert!(
                        code_size_words(&r.schedule) <= code_size_words(&plain.schedule),
                        "{tag}: code size regressed"
                    );
                    if r.winner_candidate == 0 {
                        assert_eq!(r.ii(), plain.ii(), "{tag}: candidate 0 must be the plain run");
                    }
                }
            }
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_runs() {
        let l = transform::unroll(&kernels::dot_product(1024), 4);
        let m = MachineConfig::paper_clustered(8);
        let cfg = DmsConfig {
            strategy: SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 },
            ..DmsConfig::default()
        };
        let a = check(&l, &m, &cfg);
        let b = check(&l, &m, &cfg);
        assert_eq!(a.ii(), b.ii());
        assert_eq!(a.winner_candidate, b.winner_candidate);
        assert_eq!(a.pressure.total(), b.pressure.total());
        assert_eq!(a.candidates_run, 7);
    }

    #[test]
    fn beam_width_one_still_schedules_every_kernel() {
        let cfg =
            DmsConfig { strategy: SchedulerStrategy::Beam { width: 1 }, ..DmsConfig::default() };
        for l in kernels::all(64) {
            check(&l, &MachineConfig::paper_clustered(4), &cfg);
        }
    }
}
