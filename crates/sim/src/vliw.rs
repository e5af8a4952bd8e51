//! The program executor: one in-order walk of the *emitted* VLIW program
//! that computes its stored values and, under a [`TransferModel`], the
//! issue cycle of every instruction word.
//!
//! The walk issues the fully unrolled prologue, `K` repetitions of the
//! steady-state kernel and the epilogue the way the hardware would:
//! instruction word by instruction word, each operand read from the
//! register file its [`OperandSource`] annotation names. A value routed
//! through a CQRF travels through a FIFO stream (one per consuming operand,
//! as the queue registers are allocated) with single-read discipline; a
//! local value is read back from the producing cluster's register file. A
//! wrong annotation, a missing kernel slot or a mis-ordered prologue changes
//! the values reaching the stores and is caught by [`crate::verify`]; a
//! fault the walk detects itself (an empty or overflowing CQRF stream, a
//! program inconsistent with its DDG) is a [`SimError`].
//!
//! Timing rides along in the same pass: a word issues the cycle after its
//! predecessor, or later if a CQRF operand is still in flight on its link
//! ([`crate::contention`]). Under [`TransferModel::Unconstrained`] word `w`
//! issues at cycle `w` and the walk skips the timing bookkeeping.
//!
//! All state is laid out once per program in tables indexed by [`OpId`] and
//! stream number. A stream needs no buffer of its own: the consumer of
//! iteration `j` pops its producer's value of iteration `j - distance` (a
//! loop live-in before that), and the stream holds
//! `distance + pushed - popped` values.

use crate::contention::{measure_achieved_ii, Booking, ContentionReport};
use crate::interp::StoreRecord;
use crate::values::{apply, initial_value, invariant_value, live_in_value};
use dms_ir::{Ddg, OpId, OpKind, Operand};
use dms_machine::{CqrfId, MachineConfig, TransferModel};
use dms_regalloc::codegen::{CodeSlot, OperandSource, VliwProgram};
use dms_telemetry::{SchedEvent, Telemetry};
use std::fmt;

/// Errors detected while executing an emitted program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A consumer tried to read from an empty inter-cluster queue (the value
    /// had not been produced yet).
    EmptyQueueRead {
        /// Consumer operation.
        consumer: OpId,
        /// Iteration of the consumer.
        iteration: u64,
    },
    /// A producer pushed into a full inter-cluster queue: the schedule keeps
    /// more values in flight than the CQRF capacity allows. Reported eagerly
    /// instead of dropping the value, which would corrupt every later read
    /// of the stream and misdiagnose a capacity problem as a value bug.
    QueueOverflow {
        /// Producer operation whose value did not fit.
        producer: OpId,
        /// Consumer operation owning the overflowing stream.
        consumer: OpId,
    },
    /// The emitted VLIW program is inconsistent with the DDG it claims to
    /// implement (wrong operand annotation, wrong arity, wrong endpoint).
    MalformedProgram {
        /// The operation whose slot is inconsistent.
        op: OpId,
        /// What is wrong with it.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyQueueRead { consumer, iteration } => {
                write!(f, "{consumer} read an empty queue in iteration {iteration}")
            }
            SimError::MalformedProgram { op, detail } => {
                write!(f, "emitted program is inconsistent at {op}: {detail}")
            }
            SimError::QueueOverflow { producer, consumer } => {
                write!(f, "value of {producer} for {consumer} overflowed a CQRF: capacity exceeded")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of one program execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramReport {
    /// Total cycles: `(trip_count + stages - 1) * II`.
    pub cycles: u64,
    /// Times the steady-state kernel was issued
    /// (`trip_count - stages + 1` when the pipeline fills completely).
    pub kernel_repetitions: u64,
    /// Operation instances executed across prologue, kernel and epilogue.
    pub instances_executed: u64,
    /// Useful (non copy/move) instances among them.
    pub useful_instances: u64,
    /// Values that travelled through a CQRF stream.
    pub cross_cluster_values: u64,
    /// Largest occupancy reached by any CQRF stream.
    pub max_queue_depth: u64,
    /// Every value stored, in issue order.
    pub stores: Vec<StoreRecord>,
}

/// Everything one walk of a program measures: its values and its timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// Stored values and instance counts.
    pub report: ProgramReport,
    /// Issue timing under the walk's transfer model.
    pub timing: ContentionReport,
}

/// Marks an absent index.
const NONE: u32 = u32::MAX;

/// An operand source, resolved once per program.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// An immediate or a loop invariant.
    Const(i64),
    /// The loop induction variable.
    Induction,
    /// `producer`'s value `distance` iterations back: read from the LRF
    /// when `stream` is [`NONE`], else popped from that CQRF stream.
    Def { producer: u32, distance: u32, stream: u32 },
}

impl Src {
    /// The source of a DDG operand read through the local register file.
    fn of_operand(operand: &Operand) -> Src {
        match *operand {
            Operand::Immediate(v) => Src::Const(v),
            Operand::Invariant(k) => Src::Const(invariant_value(k)),
            Operand::Induction => Src::Induction,
            Operand::Def { op, distance } => Src::Def { producer: op.0, distance, stream: NONE },
        }
    }
}

/// One compiled slot: its operation and its range of `Walk::srcs`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: u32,
    kind: OpKind,
    srcs: (u32, u32),
}

/// One CQRF operand stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    producer: u32,
    consumer: u32,
    /// Loop live-ins pre-loaded before cycle 0.
    distance: u32,
    queue: CqrfId,
    /// Booking window of the link its values cross, or [`NONE`] when
    /// transfers are free.
    link: u32,
    /// Transfer slots per cycle of that link.
    capacity: u32,
    high_water: u64,
}

/// The state of one walk.
#[derive(Debug)]
struct Walk<'a> {
    ddg: &'a Ddg,
    trips: u64,
    model: TransferModel,
    slots: Vec<Slot>,
    srcs: Vec<Src>,
    /// Every word is `word_slots[start..end]`, indices into `slots`.
    words: Vec<(u32, u32)>,
    word_slots: Vec<u32>,
    streams: Vec<Stream>,
    /// Op `i` pushes into the streams `fanout[fanout_start[i]..fanout_start[i + 1]]`,
    /// in (consumer, operand) order.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// `values[j * ops + op]`: the value op produced in iteration `j`.
    /// Rows are added as iterations run, so memory follows progress,
    /// not the requested trip count.
    values: Vec<i64>,
    /// Iterations each op has executed.
    done: Vec<u64>,
    cqrf_capacity: u64,
    clock: Clock,
    report: ProgramReport,
}

/// The timing state of a walk; the tables stay empty under
/// [`TransferModel::Unconstrained`].
#[derive(Debug, Default)]
struct Clock {
    /// First cycle the next word may issue.
    next_cycle: u64,
    words_issued: u64,
    /// `ready[j * streams + stream]`: first cycle the value pushed in the
    /// producer's iteration `j` is consumable. Grown like `values`.
    ready: Vec<u64>,
    bookings: Vec<Booking>,
    /// Kernel-phase issue cycles of every store, by op.
    store_times: Vec<Vec<u64>>,
    transfers: u64,
    serialized: u64,
}

impl<'a> Walk<'a> {
    /// An empty walk of `trips` iterations of `ddg`'s operations.
    fn new(ddg: &'a Ddg, trips: u64, model: TransferModel, cqrf_capacity: u32) -> Self {
        let ops = ddg.num_slots();
        Walk {
            ddg,
            trips,
            model,
            slots: Vec::new(),
            srcs: Vec::new(),
            words: Vec::new(),
            word_slots: Vec::new(),
            streams: Vec::new(),
            fanout_start: vec![0; ops + 1],
            fanout: Vec::new(),
            values: Vec::new(),
            done: vec![0; ops],
            cqrf_capacity: u64::from(cqrf_capacity.max(1)),
            clock: Clock::default(),
            report: ProgramReport::default(),
        }
    }

    fn timed(&self) -> bool {
        self.model != TransferModel::Unconstrained
    }

    /// Appends a word issuing the given slots (indices into `slots`).
    fn push_word(&mut self, slots: impl IntoIterator<Item = u32>) {
        let start = self.word_slots.len() as u32;
        self.word_slots.extend(slots);
        self.words.push((start, self.word_slots.len() as u32));
    }

    /// Issues word `w` at the first cycle its operands allow.
    fn issue_word(&mut self, w: usize, in_kernel: bool) -> Result<(), SimError> {
        let (start, end) = self.words[w];
        let mut at = self.clock.next_cycle;
        if self.timed() {
            for i in start..end {
                at = at.max(self.ready_at(self.slots[self.word_slots[i as usize] as usize]));
            }
        }
        for i in start..end {
            self.issue(self.slots[self.word_slots[i as usize] as usize], at, in_kernel)?;
        }
        self.clock.next_cycle = at + 1;
        self.clock.words_issued += 1;
        Ok(())
    }

    /// Value of `op` in iteration `it`, if that instance has executed.
    fn produced(&self, op: u32, it: i64) -> Option<i64> {
        let op = op as usize;
        (it >= 0 && (it as u64) < self.done[op])
            .then(|| self.values[it as usize * self.done.len() + op])
    }

    /// First cycle every in-flight CQRF operand of `slot` is consumable. A
    /// value not pushed yet imposes nothing: a producer earlier in the same
    /// word may still push it, and a pop from an empty stream is an error
    /// of the value pass.
    fn ready_at(&self, slot: Slot) -> u64 {
        let j = self.done[slot.op as usize];
        let mut at = 0;
        for src in &self.srcs[slot.srcs.0 as usize..slot.srcs.1 as usize] {
            let Src::Def { producer, distance, stream } = *src else { continue };
            let it = j as i64 - i64::from(distance);
            if stream != NONE && j < self.trips && self.produced(producer, it).is_some() {
                let row = it as usize * self.streams.len();
                at = at.max(self.clock.ready[row + stream as usize]);
            }
        }
        at
    }

    /// Executes one slot occurrence at cycle `at`: the next iteration of its
    /// operation, unless the trip count is exhausted (ramp code beyond it,
    /// only possible when `trip_count < stages`, is predicated off).
    fn issue(&mut self, slot: Slot, at: u64, in_kernel: bool) -> Result<(), SimError> {
        let op = slot.op as usize;
        let j = self.done[op];
        if j >= self.trips {
            return Ok(());
        }
        let mut operands = [0i64; 2];
        for (idx, s) in (slot.srcs.0..slot.srcs.1).enumerate() {
            let value = match self.srcs[s as usize] {
                Src::Const(v) => v,
                Src::Induction => j as i64,
                Src::Def { producer, distance, stream } => {
                    let it = j as i64 - i64::from(distance);
                    match self.produced(producer, it) {
                        _ if it < 0 => live_in_value(self.ddg, OpId(producer), it),
                        Some(v) => v,
                        None if stream == NONE => initial_value(OpId(producer), it),
                        None => {
                            return Err(SimError::EmptyQueueRead {
                                consumer: OpId(slot.op),
                                iteration: j,
                            })
                        }
                    }
                }
            };
            if let Some(o) = operands.get_mut(idx) {
                *o = value;
            }
        }
        let arity = ((slot.srcs.1 - slot.srcs.0) as usize).min(operands.len());
        let value = apply(slot.kind, &operands[..arity], j);
        let row = j as usize * self.done.len();
        if self.values.len() < row + self.done.len() {
            self.values.resize(row + self.done.len(), 0);
        }
        self.values[row + op] = value;
        self.done[op] = j + 1;
        self.report.instances_executed += 1;
        self.report.useful_instances += u64::from(slot.kind.is_useful());
        if slot.kind == OpKind::Store {
            self.report.stores.push(StoreRecord { op: OpId(slot.op), iteration: j, value });
            if self.timed() && in_kernel {
                self.clock.store_times[op].push(at);
            }
        }
        let fanout = self.fanout_start[op] as usize..self.fanout_start[op + 1] as usize;
        for f in fanout.clone() {
            let s = self.fanout[f] as usize;
            let stream = self.streams[s];
            self.report.cross_cluster_values += 1;
            let depth = u64::from(stream.distance) + j + 1 - self.done[stream.consumer as usize];
            if depth > self.cqrf_capacity {
                return Err(SimError::QueueOverflow {
                    producer: OpId(slot.op),
                    consumer: OpId(stream.consumer),
                });
            }
            self.streams[s].high_water = stream.high_water.max(depth);
            if !self.timed() {
                continue;
            }
            // One transaction per link carries the value to every stream
            // crossing it (a bus write is a broadcast).
            let shared = self.fanout[fanout.start..f].iter().find(|&&e| {
                let e = &self.streams[e as usize];
                e.link != NONE && e.queue == stream.queue
            });
            let (clock, row) = (&mut self.clock, j as usize * self.streams.len());
            if clock.ready.len() < row + self.streams.len() {
                clock.ready.resize(row + self.streams.len(), 0);
            }
            clock.ready[row + s] = match shared {
                _ if stream.link == NONE => at + 1,
                Some(&e) => clock.ready[row + e as usize],
                None => {
                    let grant = clock.bookings[stream.link as usize].acquire(at, stream.capacity);
                    clock.transfers += 1;
                    clock.serialized += u64::from(grant > at);
                    grant + 1
                }
            };
        }
        Ok(())
    }

    /// Lays out `program`: kernel words first, then the prologue and the
    /// epilogue, whose slots repeat kernel slots. Every live operation
    /// appears exactly once in the kernel, and its slot there defines the
    /// operation's streams.
    fn compile(&mut self, program: &VliwProgram, machine: &MachineConfig) -> Result<(), SimError> {
        let topology = machine.topology();
        let clusters = topology.len() as usize;
        if self.timed() {
            self.clock.bookings = vec![Booking::default(); clusters * clusters];
        }
        let mut kernel_slot: Vec<Option<(u32, &CodeSlot)>> = vec![None; self.done.len()];
        let kernel_slots = program.kernel.iter().flat_map(|w| &w.slots);
        for (i, slot) in kernel_slots.clone().enumerate() {
            kernel_slot[slot.op.index()] = Some((i as u32, slot));
        }
        let ddg = self.ddg;
        for slot in kernel_slots {
            let malformed = |detail: String| SimError::MalformedProgram { op: slot.op, detail };
            let operation = ddg.op(slot.op);
            if slot.sources.len() != operation.reads.len() {
                return Err(malformed(format!(
                    "slot has {} operand sources but the operation reads {} values",
                    slot.sources.len(),
                    operation.reads.len()
                )));
            }
            let first = self.srcs.len() as u32;
            for (idx, (source, read)) in slot.sources.iter().zip(&operation.reads).enumerate() {
                let writer = |p: OpId| kernel_slot[p.index()].map(|(_, k)| k.cluster);
                let src = match (source, read.producer()) {
                    (&OperandSource::Immediate(v), _) => Src::Const(v),
                    (&OperandSource::Invariant(k), _) => Src::Const(invariant_value(k)),
                    (OperandSource::Induction, _) => Src::Induction,
                    (&OperandSource::Lrf { producer }, Some((p, _))) if p == producer => {
                        Src::of_operand(read)
                    }
                    (&OperandSource::Cqrf { producer, queue }, Some((p, distance)))
                        if p == producer
                            && writer(p).and_then(|w| topology.queue_between(w, slot.cluster))
                                == Some(queue) =>
                    {
                        if u64::from(distance) > self.cqrf_capacity {
                            return Err(SimError::QueueOverflow { producer: p, consumer: slot.op });
                        }
                        let capacity =
                            writer(p).and_then(|w| topology.link_capacity(w, slot.cluster));
                        let link = match (self.model, capacity) {
                            (TransferModel::Unconstrained, _) | (_, None) => NONE,
                            (TransferModel::SharedMedium, _) => 0,
                            (TransferModel::PerLink, _) => {
                                queue.writer.0 * clusters as u32 + queue.reader.0
                            }
                        };
                        self.streams.push(Stream {
                            producer: p.0,
                            consumer: slot.op.0,
                            distance,
                            queue,
                            link,
                            capacity: capacity.unwrap_or(0),
                            high_water: u64::from(distance),
                        });
                        Src::Def { producer: p.0, distance, stream: self.streams.len() as u32 - 1 }
                    }
                    (source, _) => {
                        return Err(malformed(format!(
                            "operand {idx} names {source}, which is not the value it reads"
                        )))
                    }
                };
                self.srcs.push(src);
            }
            let srcs = (first, self.srcs.len() as u32);
            self.slots.push(Slot { op: slot.op.0, kind: operation.kind, srcs });
        }
        for word in &program.kernel {
            let start = self.word_slots.len() as u32;
            self.push_word(start..start + word.slots.len() as u32);
        }
        for word in program.prologue.iter().chain(&program.epilogue) {
            let slots = word.slots.iter().map(|slot| match kernel_slot[slot.op.index()] {
                Some((i, k)) if k == slot => Ok(i),
                _ => Err(SimError::MalformedProgram {
                    op: slot.op,
                    detail: "ramp slot differs from its kernel slot".into(),
                }),
            });
            let slots = slots.collect::<Result<Vec<_>, _>>()?;
            self.push_word(slots);
        }

        let mut order: Vec<u32> = (0..self.streams.len() as u32).collect();
        order.sort_by_key(|&s| {
            (self.streams[s as usize].producer, self.streams[s as usize].consumer)
        });
        for &s in &order {
            self.fanout_start[self.streams[s as usize].producer as usize + 1] += 1;
        }
        for i in 1..self.fanout_start.len() {
            self.fanout_start[i] += self.fanout_start[i - 1];
        }
        self.fanout = order;
        Ok(())
    }
}

/// Walks `trip_count` iterations of the emitted program once, computing its
/// stored values and, under `model`, the issue cycle of every word.
///
/// `ddg` must be the scheduled DDG the program was emitted from (it supplies
/// the iteration distance of every operand, which the instruction encoding
/// does not carry). [`execute_program`] is this walk under
/// [`TransferModel::Unconstrained`] and [`crate::contended_replay`] under
/// the machine's own model. Timing never changes values: every model sees
/// the same stores, instance counts and queue depths.
///
/// # Errors
///
/// Returns a [`SimError`] for an inconsistency between program and DDG, a
/// read from an empty CQRF stream or a push into a full one; a correctly
/// emitted program of a valid schedule never fails.
pub fn run_program(
    program: &VliwProgram,
    ddg: &Ddg,
    machine: &MachineConfig,
    model: TransferModel,
    trip_count: u64,
) -> Result<Execution, SimError> {
    let mut walk = Walk::new(ddg, trip_count, model, machine.cqrf_capacity);
    walk.compile(program, machine)?;
    if walk.timed() {
        walk.clock.store_times = vec![Vec::new(); walk.done.len()];
    }
    let stages = u64::from(program.stages.max(1));
    let kernel_repetitions = trip_count.saturating_sub(stages - 1);
    let (kernel, ramp) = (program.kernel.len(), program.kernel.len() + program.prologue.len());
    for w in kernel..ramp {
        walk.issue_word(w, false)?;
    }
    for _ in 0..kernel_repetitions {
        for w in 0..kernel {
            walk.issue_word(w, true)?;
        }
    }
    for w in ramp..walk.words.len() {
        walk.issue_word(w, false)?;
    }

    let clock = &walk.clock;
    let stall_cycles = clock.next_cycle - clock.words_issued;
    if stall_cycles > 0 {
        Telemetry::current().event(SchedEvent::LinkStall { cycles: stall_cycles });
    }
    let timing = ContentionReport {
        scheduled_ii: program.ii,
        achieved_ii: measure_achieved_ii(&clock.store_times, program.ii),
        cycles: clock.next_cycle,
        ideal_cycles: clock.words_issued,
        stall_cycles,
        transfers: clock.transfers,
        serialized_transfers: clock.serialized,
    };
    let report = ProgramReport {
        cycles: if trip_count == 0 { 0 } else { (trip_count + stages - 1) * u64::from(program.ii) },
        kernel_repetitions,
        max_queue_depth: walk.streams.iter().map(|s| s.high_water).max().unwrap_or(0),
        ..walk.report
    };
    Ok(Execution { report, timing })
}

/// Executes `trip_count` iterations of the emitted program under idealised
/// timing: [`run_program`] under [`TransferModel::Unconstrained`].
///
/// `ddg` must be the scheduled DDG the program was emitted from.
///
/// # Errors
///
/// Returns a [`SimError`] for an inconsistency between program and DDG, or a
/// read from an empty CQRF stream; a correctly emitted program of a valid
/// schedule never fails.
pub fn execute_program(
    program: &VliwProgram,
    ddg: &Ddg,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<ProgramReport, SimError> {
    run_program(program, ddg, machine, TransferModel::Unconstrained, trip_count).map(|e| e.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::reference_trace;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::kernels;
    use dms_regalloc::emit;
    use dms_sched::ims::{ims_schedule, ImsConfig};

    fn sorted(mut v: Vec<StoreRecord>) -> Vec<StoreRecord> {
        v.sort_unstable_by_key(|r| (r.iteration, r.op));
        v
    }

    #[test]
    fn emitted_program_reproduces_the_reference_trace() {
        for l in kernels::all(40) {
            for clusters in [1, 2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let p = emit(&r, &m);
                let exec = execute_program(&p, &r.ddg, &m, l.trip_count)
                    .unwrap_or_else(|e| panic!("{} on {clusters} clusters: {e}", l.name));
                assert_eq!(
                    sorted(exec.stores),
                    sorted(reference_trace(&l.ddg, l.trip_count)),
                    "{} on {clusters} clusters",
                    l.name
                );
                assert_eq!(exec.useful_instances, l.useful_ops() as u64 * l.trip_count);
                assert_eq!(exec.cycles, r.cycles(l.trip_count));
            }
        }
    }

    #[test]
    fn ims_programs_execute_without_cqrf_traffic() {
        let l = kernels::fir(6, 64);
        let m = MachineConfig::unclustered(4);
        let r = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
        let p = emit(&r, &m);
        let exec = execute_program(&p, &r.ddg, &m, l.trip_count).unwrap();
        assert_eq!(exec.cross_cluster_values, 0);
        assert_eq!(exec.stores.len(), l.trip_count as usize);
    }

    #[test]
    fn dependence_violation_changes_stored_values() {
        // Issue a producer too late (after its consumer), with no validator
        // in front: the walk must read an empty queue or store a value the
        // reference does not.
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(2);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let store =
            r.ddg.live_ops().find(|(_, o)| o.kind == OpKind::Store).map(|(id, _)| id).unwrap();
        let producer = r.ddg.op(store).defs_read().next().unwrap().0;
        let place = r.schedule.get(producer).unwrap();
        // push the producer 10 * II later, violating the dependence
        let late = place.time + 10 * r.ii();
        r.schedule.place(producer, late, place.cluster);
        match execute_program(&emit(&r, &m), &r.ddg, &m, 8) {
            Err(SimError::EmptyQueueRead { .. }) => {}
            Ok(exec) => assert_ne!(sorted(exec.stores), sorted(reference_trace(&l.ddg, 8))),
            Err(e) => panic!("a violated dependence must change values, got {e}"),
        }
    }

    #[test]
    fn error_display() {
        let e = SimError::EmptyQueueRead { consumer: OpId(2), iteration: 5 };
        assert!(e.to_string().contains("op2"));
    }

    #[test]
    fn trip_count_shorter_than_the_pipeline_is_predicated_off() {
        let l = kernels::horner(5, 8);
        let m = MachineConfig::paper_clustered(2);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        for trips in [0u64, 1, 2] {
            let exec = execute_program(&p, &r.ddg, &m, trips).unwrap();
            assert_eq!(sorted(exec.stores), sorted(reference_trace(&l.ddg, trips)));
        }
    }
}
