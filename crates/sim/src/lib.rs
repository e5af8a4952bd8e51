//! # dms-sim — Execution of modulo-scheduled clustered VLIW loops
//!
//! The paper evaluates DMS statically (initiation intervals, derived cycle
//! counts). This crate goes one step further and *executes* the generated
//! schedules, which both validates the reproduction and exercises the queue
//! register file semantics of the architecture:
//!
//! * [`vliw`] — the one program executor: [`run_program`] walks the
//!   *emitted* VLIW program (the `dms_regalloc::emit` output) instruction
//!   word by instruction word, reading operands from the register files
//!   their codegen annotations name, and computes the stored values and,
//!   under a [`dms_machine::TransferModel`] parameter, every word's issue
//!   cycle in the same pass,
//! * [`contention`] — the link booking window and achieved-II measurement
//!   behind that timing; [`contended_replay`] is the walk under the
//!   machine's own model,
//! * [`interp`] — the sequential reference interpreter of a loop DDG,
//!   defining the semantics every correct schedule must reproduce, kept
//!   separate from the executor it checks,
//! * [`verify`] — the end-to-end oracle: validate → allocate → emit →
//!   walk → cross-check against the scalar reference,
//! * [`values`] — the deterministic value semantics shared by all of them.
//!
//! The one oracle is [`verify_schedule`] (and [`verify_timed`], which also
//! times the walk), re-exported at the workspace root as
//! `dms::verify_schedule`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod contention;
pub mod interp;
pub mod values;
pub mod verify;
pub mod vliw;

pub use contention::{contended_replay, ContentionReport};
pub use interp::{reference_trace, StoreRecord};
pub use verify::{verify_schedule, verify_timed, VerifyError, VerifyReport};
pub use vliw::{execute_program, run_program, Execution, ProgramReport, SimError};
