//! The newline-delimited JSON wire protocol of the schedule service.
//!
//! One request per line, one response per line. The build is offline and
//! has no serialization crate, so the codec is hand-rolled: a small
//! recursive-descent parser over a [`Json`] value tree and explicit
//! renderers. All numbers on the wire are integers.
//!
//! ## Requests
//!
//! ```json
//! {"op":"schedule","loop":{...},"machine":{...},"scheduler":"dms",
//!  "strategy":"dms","ii_seed":null,"verify_trips":64}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! The loop object carries the full DDG: `ops` is a slot-indexed array
//! (`null` marks a tombstone) of `[kind, [operand, ...]]` pairs, and each
//! operand is `["def", producer_slot, distance]`, `["inv", index]`,
//! `["imm", value]` or `["ind"]`; `edges` is an array of
//! `[src, dst, kind, latency, distance]`. The machine object names one of
//! the paper's parameterized configurations rather than serializing FU
//! tables: `{"unclustered":false,"clusters":4,"copy_units":1,
//! "cqrf_capacity":null,"topology":"ring"}`.
//!
//! ## Responses
//!
//! A schedule response reports the [`dms_sched::ScheduleSummary`] plus the
//! DMS search telemetry and the verification digest when present:
//!
//! ```json
//! {"ok":true,"cache_hit":false,"scheduler":"dms",
//!  "summary":{"loop":"l","ii":3,"mii":3,"stages":2,"ops":17,
//!             "useful_ops":12,"copies":5,"moves":1,"ii_attempts":1},
//!  "dms":{"first_ii":3,"pressure_retries":0,"baseline_ii":3,
//!         "candidates":0,"winner":0},
//!  "verify":{"stores_checked":128,"max_queue_depth":3}}
//! ```
//!
//! A `metrics` response carries the registry's Prometheus text exposition
//! as an escaped JSON string: `{"ok":true,"metrics":"# TYPE ...\n..."}`.
//! Errors are `{"ok":false,"error":"..."}`.

use crate::cache::CacheCounters;
use crate::service::{ScheduleResponse, SchedulerKind, ServiceError};
use dms_core::DmsConfig;
use dms_ir::{Ddg, DepEdge, DepKind, Loop, OpId, OpKind, Operand, Operation};
use dms_machine::{MachineConfig, TopologyKind};
use dms_sched::SchedulerStrategy;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// JSON value tree
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are `i64` — every field of this protocol is
/// integral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The non-negative integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so untrusted input must not choose the depth;
/// a schedule request nests a handful of levels.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_NESTING => {
                Err(format!("nesting deeper than {MAX_NESTING} levels at byte {}", self.pos))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "floating-point numbers are not part of this protocol (byte {start})"
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request model
// ---------------------------------------------------------------------------

/// The machine half of a wire request: one of the paper's parameterized
/// configurations (the wire never ships raw FU tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMachine {
    /// `true` builds the unclustered reference machine
    /// ([`MachineConfig::unclustered`], where `clusters` means *equivalent*
    /// clusters); `false` the paper's clustered machine.
    pub unclustered: bool,
    /// Cluster count (or equivalent cluster count when `unclustered`).
    pub clusters: u32,
    /// Copy units per cluster (clustered machines only).
    pub copy_units: u32,
    /// CQRF capacity override (`None` keeps the paper's 32 registers).
    pub cqrf_capacity: Option<u32>,
    /// Interconnect topology (clustered machines only).
    pub topology: TopologyKind,
}

impl WireMachine {
    /// Builds the actual machine description.
    pub fn build(&self) -> MachineConfig {
        if self.unclustered {
            return MachineConfig::unclustered(self.clusters);
        }
        let mut machine = if self.copy_units == 1 {
            MachineConfig::paper_clustered(self.clusters)
        } else {
            MachineConfig::paper_clustered_with_copy_units(self.clusters, self.copy_units)
        }
        .with_topology(self.topology);
        if let Some(capacity) = self.cqrf_capacity {
            machine = machine.with_cqrf_capacity(capacity);
        }
        machine
    }
}

/// A decoded `schedule` request.
#[derive(Debug, Clone)]
pub struct WireSchedule {
    /// The loop body to schedule.
    pub body: Loop,
    /// The machine to schedule for.
    pub machine: WireMachine,
    /// Which scheduler to run.
    pub scheduler: SchedulerKind,
    /// DMS configuration (defaults plus the wire's `strategy`/`ii_seed`).
    pub dms: DmsConfig,
    /// Verification trip count, if the request asks to verify.
    pub verify_trips: Option<u64>,
    /// Whether to replay the verified program under the topology's
    /// transfer-bandwidth model and report the achieved II (requires
    /// `verify_trips`).
    pub contention: bool,
}

/// A decoded request line.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// Schedule one loop.
    Schedule(Box<WireSchedule>),
    /// Report the cache counters.
    Stats,
    /// Report the service's metrics registry in Prometheus text
    /// exposition format.
    Metrics,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Encoding (client side emits requests, server side emits responses)
// ---------------------------------------------------------------------------

fn op_kind_str(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Load => "load",
        OpKind::Store => "store",
        OpKind::Add => "add",
        OpKind::Sub => "sub",
        OpKind::Mul => "mul",
        OpKind::Div => "div",
        OpKind::Copy => "copy",
        OpKind::Move => "move",
    }
}

fn op_kind_parse(s: &str) -> Result<OpKind, String> {
    Ok(match s {
        "load" => OpKind::Load,
        "store" => OpKind::Store,
        "add" => OpKind::Add,
        "sub" => OpKind::Sub,
        "mul" => OpKind::Mul,
        "div" => OpKind::Div,
        "copy" => OpKind::Copy,
        "move" => OpKind::Move,
        other => return Err(format!("unknown op kind {other:?}")),
    })
}

fn dep_kind_str(kind: DepKind) -> &'static str {
    match kind {
        DepKind::Flow => "flow",
        DepKind::Anti => "anti",
        DepKind::Output => "output",
        DepKind::Memory => "memory",
    }
}

fn dep_kind_parse(s: &str) -> Result<DepKind, String> {
    Ok(match s {
        "flow" => DepKind::Flow,
        "anti" => DepKind::Anti,
        "output" => DepKind::Output,
        "memory" => DepKind::Memory,
        other => return Err(format!("unknown dependence kind {other:?}")),
    })
}

fn operand_json(operand: &Operand) -> Json {
    match *operand {
        Operand::Def { op, distance } => Json::Arr(vec![
            Json::Str("def".to_string()),
            Json::Num(i64::from(op.0)),
            Json::Num(i64::from(distance)),
        ]),
        Operand::Invariant(i) => {
            Json::Arr(vec![Json::Str("inv".to_string()), Json::Num(i64::from(i))])
        }
        Operand::Immediate(v) => Json::Arr(vec![Json::Str("imm".to_string()), Json::Num(v)]),
        Operand::Induction => Json::Arr(vec![Json::Str("ind".to_string())]),
    }
}

/// Serializes a loop (name, trip count and the full DDG) as a JSON object.
pub fn loop_json(body: &Loop) -> Json {
    let ops: Vec<Json> = (0..body.ddg.num_slots())
        .map(|slot| {
            let id = OpId(slot as u32);
            if !body.ddg.is_live(id) {
                return Json::Null;
            }
            let op = body.ddg.op(id);
            Json::Arr(vec![
                Json::Str(op_kind_str(op.kind).to_string()),
                Json::Arr(op.reads.iter().map(operand_json).collect()),
            ])
        })
        .collect();
    let edges: Vec<Json> = body
        .ddg
        .live_edges()
        .map(|(_, e)| {
            Json::Arr(vec![
                Json::Num(i64::from(e.src.0)),
                Json::Num(i64::from(e.dst.0)),
                Json::Str(dep_kind_str(e.kind).to_string()),
                Json::Num(i64::from(e.latency)),
                Json::Num(i64::from(e.distance)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".to_string(), Json::Str(body.name.clone())),
        ("trip_count".to_string(), Json::Num(body.trip_count as i64)),
        ("ops".to_string(), Json::Arr(ops)),
        ("edges".to_string(), Json::Arr(edges)),
    ])
}

fn opt_num<T: Into<i64>>(v: Option<T>) -> Json {
    match v {
        None => Json::Null,
        Some(n) => Json::Num(n.into()),
    }
}

/// Encodes a `schedule` request as one wire line (no trailing newline).
pub fn encode_schedule_request(ws: &WireSchedule) -> String {
    let machine = Json::Obj(vec![
        ("unclustered".to_string(), Json::Bool(ws.machine.unclustered)),
        ("clusters".to_string(), Json::Num(i64::from(ws.machine.clusters))),
        ("copy_units".to_string(), Json::Num(i64::from(ws.machine.copy_units))),
        ("cqrf_capacity".to_string(), opt_num(ws.machine.cqrf_capacity)),
        ("topology".to_string(), Json::Str(ws.machine.topology.label())),
    ]);
    Json::Obj(vec![
        ("op".to_string(), Json::Str("schedule".to_string())),
        ("loop".to_string(), loop_json(&ws.body)),
        ("machine".to_string(), machine),
        (
            "scheduler".to_string(),
            Json::Str(
                match ws.scheduler {
                    SchedulerKind::Ims => "ims",
                    SchedulerKind::Dms => "dms",
                }
                .to_string(),
            ),
        ),
        ("strategy".to_string(), Json::Str(ws.dms.strategy.label())),
        ("ii_seed".to_string(), opt_num(ws.dms.ii_seed)),
        ("verify_trips".to_string(), opt_num(ws.verify_trips.map(|t| t as i64))),
        ("contention".to_string(), Json::Bool(ws.contention)),
    ])
    .render()
}

/// Encodes a `stats` request.
pub fn encode_stats_request() -> String {
    Json::Obj(vec![("op".to_string(), Json::Str("stats".to_string()))]).render()
}

/// Encodes a `metrics` request.
pub fn encode_metrics_request() -> String {
    Json::Obj(vec![("op".to_string(), Json::Str("metrics".to_string()))]).render()
}

/// Encodes a `shutdown` request.
pub fn encode_shutdown_request() -> String {
    Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]).render()
}

/// Encodes a schedule response (or failure) as one wire line.
pub fn encode_response(result: &Result<ScheduleResponse, ServiceError>) -> String {
    match result {
        Err(e) => encode_error(&e.to_string()),
        Ok(resp) => {
            let summary = resp.output.result().summary();
            let summary_json = Json::Obj(vec![
                ("loop".to_string(), Json::Str(summary.loop_name.clone())),
                ("ii".to_string(), Json::Num(i64::from(summary.ii))),
                ("mii".to_string(), Json::Num(i64::from(summary.mii))),
                ("stages".to_string(), Json::Num(i64::from(summary.stages))),
                ("ops".to_string(), Json::Num(summary.ops as i64)),
                ("useful_ops".to_string(), Json::Num(summary.useful_ops as i64)),
                ("copies".to_string(), Json::Num(summary.copies as i64)),
                ("moves".to_string(), Json::Num(summary.moves as i64)),
                ("ii_attempts".to_string(), Json::Num(i64::from(summary.ii_attempts))),
            ]);
            let dms = match resp.output.dms() {
                None => Json::Null,
                Some(o) => Json::Obj(vec![
                    ("first_ii".to_string(), Json::Num(i64::from(o.first_ii))),
                    ("pressure_retries".to_string(), Json::Num(i64::from(o.pressure_retries))),
                    ("baseline_ii".to_string(), Json::Num(i64::from(o.baseline_ii))),
                    ("candidates".to_string(), Json::Num(i64::from(o.candidates_run))),
                    ("winner".to_string(), Json::Num(i64::from(o.winner_candidate))),
                ]),
            };
            let verify = match resp.verify {
                None => Json::Null,
                Some(d) => Json::Obj(vec![
                    ("stores_checked".to_string(), Json::Num(d.stores_checked as i64)),
                    ("max_queue_depth".to_string(), Json::Num(d.max_queue_depth as i64)),
                    ("achieved_ii".to_string(), Json::Num(i64::from(d.achieved_ii))),
                ]),
            };
            Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("cache_hit".to_string(), Json::Bool(resp.cache_hit)),
                (
                    "scheduler".to_string(),
                    Json::Str(if resp.output.dms().is_some() { "dms" } else { "ims" }.to_string()),
                ),
                ("summary".to_string(), summary_json),
                ("dms".to_string(), dms),
                ("verify".to_string(), verify),
            ])
            .render()
        }
    }
}

/// Encodes a `stats` response.
pub fn encode_stats_response(counters: CacheCounters, entries: usize) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("hits".to_string(), Json::Num(counters.hits as i64)),
        ("misses".to_string(), Json::Num(counters.misses as i64)),
        ("inserts".to_string(), Json::Num(counters.inserts as i64)),
        ("entries".to_string(), Json::Num(entries as i64)),
    ])
    .render()
}

/// Encodes a `metrics` response. The multi-line Prometheus exposition
/// text rides inside the single-line wire protocol as an escaped JSON
/// string — a scraper unescapes `"metrics"` and has the standard format.
pub fn encode_metrics_response(text: &str) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("metrics".to_string(), Json::Str(text.to_string())),
    ])
    .render()
}

/// Encodes the `shutdown` acknowledgement.
pub fn encode_shutdown_response() -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("shutdown".to_string(), Json::Bool(true)),
    ])
    .render()
}

/// Encodes a protocol-level failure.
pub fn encode_error(message: &str) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.to_string())),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Narrows a parsed `u64` into the `u32` the model stores, rejecting (with
/// the field's name in the error) instead of silently truncating a huge
/// value into a valid-looking small one.
fn narrow_u32(value: u64, field: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| format!("{field} {value} does not fit in 32 bits"))
}

fn decode_operand(json: &Json) -> Result<Operand, String> {
    let arr = json.as_arr().ok_or("operand must be an array")?;
    let tag = arr.first().and_then(Json::as_str).ok_or("operand needs a tag")?;
    match tag {
        "def" => {
            let op = arr.get(1).and_then(Json::as_u64).ok_or("def needs a producer slot")?;
            let distance = arr.get(2).and_then(Json::as_u64).ok_or("def needs a distance")?;
            Ok(Operand::Def {
                op: OpId(narrow_u32(op, "operand producer slot")?),
                distance: narrow_u32(distance, "operand distance")?,
            })
        }
        "inv" => {
            let i = arr.get(1).and_then(Json::as_u64).ok_or("inv needs an index")?;
            Ok(Operand::Invariant(narrow_u32(i, "invariant index")?))
        }
        "imm" => {
            let v = arr.get(1).and_then(Json::as_i64).ok_or("imm needs a value")?;
            Ok(Operand::Immediate(v))
        }
        "ind" => Ok(Operand::Induction),
        other => Err(format!("unknown operand tag {other:?}")),
    }
}

/// Decodes the loop object back into a [`Loop`], reconstructing tombstone
/// slots so every producer slot index of the wire form stays valid.
pub fn decode_loop(json: &Json) -> Result<Loop, String> {
    let name = json.get("name").and_then(Json::as_str).ok_or("loop needs a name")?.to_string();
    let trip_count =
        json.get("trip_count").and_then(Json::as_u64).ok_or("loop needs a trip_count")?;
    let ops = json.get("ops").and_then(Json::as_arr).ok_or("loop needs an ops array")?;
    let edges = json.get("edges").and_then(Json::as_arr).ok_or("loop needs an edges array")?;

    let mut ddg = Ddg::new();
    let mut tombstones = Vec::new();
    for entry in ops {
        if entry.is_null() {
            // Placeholder re-creating the tombstone: added now so later
            // slots keep their index, removed again below.
            tombstones.push(ddg.add_op(Operation::new(OpKind::Add, Vec::new())));
            continue;
        }
        let pair = entry.as_arr().ok_or("op must be [kind, [reads]]")?;
        let kind = op_kind_parse(pair.first().and_then(Json::as_str).ok_or("op needs a kind")?)?;
        let reads = pair
            .get(1)
            .and_then(Json::as_arr)
            .ok_or("op needs a reads array")?
            .iter()
            .map(decode_operand)
            .collect::<Result<Vec<_>, _>>()?;
        ddg.add_op(Operation::new(kind, reads));
    }
    let live_slots: Vec<bool> = (0..ddg.num_slots())
        .map(|s| ddg.is_live(OpId(s as u32)) && !tombstones.contains(&OpId(s as u32)))
        .collect();
    let live = |id: u64| -> Result<OpId, String> {
        let id = OpId(u32::try_from(id).map_err(|_| "op id out of range")?);
        if live_slots.get(id.0 as usize).copied().unwrap_or(false) {
            Ok(id)
        } else {
            Err(format!("edge references dead op slot {}", id.0))
        }
    };
    for entry in edges {
        let e = entry.as_arr().ok_or("edge must be [src, dst, kind, latency, distance]")?;
        if e.len() != 5 {
            return Err("edge must have 5 fields".to_string());
        }
        let src = live(e[0].as_u64().ok_or("edge src must be a slot")?)?;
        let dst = live(e[1].as_u64().ok_or("edge dst must be a slot")?)?;
        let kind = dep_kind_parse(e[2].as_str().ok_or("edge kind must be a string")?)?;
        let latency =
            narrow_u32(e[3].as_u64().ok_or("edge latency must be a number")?, "edge latency")?;
        let distance =
            narrow_u32(e[4].as_u64().ok_or("edge distance must be a number")?, "edge distance")?;
        ddg.add_edge(DepEdge { src, dst, kind, latency, distance });
    }
    for t in tombstones {
        ddg.remove_op(t);
    }
    ddg.validate().map_err(|e| format!("decoded DDG is malformed: {e}"))?;
    Ok(Loop { name, ddg, trip_count })
}

/// Largest cluster count a request may ask for (the paper sweeps 1..=10).
/// [`WireMachine::build`] allocates per cluster, so untrusted input must
/// not choose the count.
pub const MAX_CLUSTERS: u32 = 64;

/// Largest verification trip count a request may ask for: 16 times the
/// sweeps' cap of 64. The verifying walk runs for as many iterations as it
/// is asked, so untrusted input must not choose an unbounded count.
pub const MAX_VERIFY_TRIPS: u64 = 1024;

fn decode_machine(json: &Json) -> Result<WireMachine, String> {
    let clusters = narrow_u32(
        json.get("clusters").and_then(Json::as_u64).ok_or("machine needs a clusters count")?,
        "machine clusters",
    )?;
    if !(1..=MAX_CLUSTERS).contains(&clusters) {
        return Err(format!("machine clusters {clusters} is not in 1..={MAX_CLUSTERS}"));
    }
    Ok(WireMachine {
        unclustered: json.get("unclustered").and_then(Json::as_bool).unwrap_or(false),
        clusters,
        copy_units: narrow_u32(
            json.get("copy_units").and_then(Json::as_u64).unwrap_or(1),
            "machine copy_units",
        )?,
        cqrf_capacity: match json.get("cqrf_capacity") {
            None | Some(Json::Null) => None,
            Some(v) => Some(narrow_u32(
                v.as_u64().ok_or("cqrf_capacity must be a number or null")?,
                "machine cqrf_capacity",
            )?),
        },
        topology: match json.get("topology") {
            None | Some(Json::Null) => TopologyKind::Ring,
            Some(v) => TopologyKind::parse(v.as_str().ok_or("topology must be a string")?)?,
        },
    })
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a message suitable for an [`encode_error`] reply.
pub fn decode_request(line: &str) -> Result<WireRequest, String> {
    let json = Json::parse(line)?;
    match json.get("op").and_then(Json::as_str) {
        Some("stats") => Ok(WireRequest::Stats),
        Some("metrics") => Ok(WireRequest::Metrics),
        Some("shutdown") => Ok(WireRequest::Shutdown),
        Some("schedule") => {
            let body = decode_loop(json.get("loop").ok_or("schedule needs a loop")?)?;
            let machine = decode_machine(json.get("machine").ok_or("schedule needs a machine")?)?;
            let scheduler = match json.get("scheduler").and_then(Json::as_str) {
                Some("ims") => SchedulerKind::Ims,
                Some("dms") | None => SchedulerKind::Dms,
                Some(other) => return Err(format!("unknown scheduler {other:?}")),
            };
            let mut dms = DmsConfig::default();
            if let Some(s) = json.get("strategy").and_then(Json::as_str) {
                dms.strategy = SchedulerStrategy::parse(s)?;
            }
            if let Some(seed) = json.get("ii_seed").filter(|v| !v.is_null()) {
                dms.ii_seed = Some(narrow_u32(
                    seed.as_u64().ok_or("ii_seed must be a number or null")?,
                    "ii_seed",
                )?);
            }
            let verify_trips = match json.get("verify_trips") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let trips = v.as_u64().ok_or("verify_trips must be a number or null")?;
                    if trips > MAX_VERIFY_TRIPS {
                        return Err(format!("verify_trips {trips} is above {MAX_VERIFY_TRIPS}"));
                    }
                    Some(trips)
                }
            };
            let contention = match json.get("contention") {
                None | Some(Json::Null) => false,
                Some(v) => v.as_bool().ok_or("contention must be a boolean or null")?,
            };
            Ok(WireRequest::Schedule(Box::new(WireSchedule {
                body,
                machine,
                scheduler,
                dms,
                verify_trips,
                contention,
            })))
        }
        Some(other) => Err(format!("unknown op {other:?}")),
        None => Err("request needs an \"op\" field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{canonical_hash, kernels};

    #[test]
    fn json_roundtrips() {
        let line = r#"{"a":[1,-2,null,true,"x\n\"y\""],"b":{"c":[]}}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
    }

    /// Nesting depth of a parsed document.
    fn depth(v: &Json) -> usize {
        match v {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn json_nesting_is_bounded_without_recursing_past_the_bound() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert_eq!(depth(&Json::parse(&nested(MAX_NESTING)).unwrap()), MAX_NESTING);
        let err = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // The line that used to overflow the handler's stack.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
        // A real request nests far below the bound.
        let request = encode_schedule_request(&WireSchedule {
            body: kernels::fir(8, 64),
            machine: WireMachine {
                unclustered: false,
                clusters: 4,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig::default(),
            verify_trips: Some(64),
            contention: true,
        });
        assert!(depth(&Json::parse(&request).unwrap()) * 8 < MAX_NESTING);
    }

    #[test]
    fn json_rejects_garbage_and_floats() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn loop_roundtrips_through_the_wire_encoding() {
        let fir = kernels::fir(8, 64);
        let decoded = decode_loop(&loop_json(&fir)).unwrap();
        assert_eq!(decoded.name, fir.name);
        assert_eq!(decoded.trip_count, fir.trip_count);
        assert_eq!(decoded.ddg.num_slots(), fir.ddg.num_slots());
        assert_eq!(canonical_hash(&decoded.ddg), canonical_hash(&fir.ddg));
        assert_eq!(
            format!("{:?}", decoded.ddg),
            format!("{:?}", fir.ddg),
            "wire decode must reproduce the DDG exactly"
        );
    }

    #[test]
    fn loop_with_tombstones_roundtrips() {
        let mut l = kernels::dot_product(32);
        let extra = l.ddg.add_op(Operation::new(OpKind::Add, vec![Operand::Immediate(1)]));
        l.ddg.remove_op(extra);
        let decoded = decode_loop(&loop_json(&l)).unwrap();
        assert_eq!(decoded.ddg.num_slots(), l.ddg.num_slots());
        assert_eq!(decoded.ddg.num_live_ops(), l.ddg.num_live_ops());
        assert_eq!(canonical_hash(&decoded.ddg), canonical_hash(&l.ddg));
    }

    #[test]
    fn schedule_request_roundtrips() {
        let fir = kernels::fir(4, 32);
        let ws = WireSchedule {
            body: fir,
            machine: WireMachine {
                unclustered: false,
                clusters: 4,
                copy_units: 1,
                cqrf_capacity: Some(16),
                topology: TopologyKind::ChordalRing { chord: 2 },
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig { ii_seed: Some(3), ..DmsConfig::default() },
            verify_trips: Some(32),
            contention: true,
        };
        let line = encode_schedule_request(&ws);
        let WireRequest::Schedule(decoded) = decode_request(&line).unwrap() else {
            panic!("expected a schedule request");
        };
        assert_eq!(decoded.machine, ws.machine);
        assert_eq!(decoded.scheduler, SchedulerKind::Dms);
        assert_eq!(decoded.dms.ii_seed, Some(3));
        assert_eq!(decoded.dms.strategy, ws.dms.strategy);
        assert_eq!(decoded.verify_trips, Some(32));
        assert!(decoded.contention);
        assert_eq!(decoded.body.name, ws.body.name);
    }

    #[test]
    fn contention_defaults_to_false_and_rejects_non_booleans() {
        let fir = kernels::fir(4, 32);
        let ws = WireSchedule {
            body: fir,
            machine: WireMachine {
                unclustered: false,
                clusters: 2,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig::default(),
            verify_trips: None,
            contention: false,
        };
        // strip the "contention" member entirely: older clients omit it
        let line = encode_schedule_request(&ws).replace(",\"contention\":false", "");
        assert!(!line.contains("contention"));
        let WireRequest::Schedule(decoded) = decode_request(&line).unwrap() else {
            panic!("expected a schedule request");
        };
        assert!(!decoded.contention, "a missing contention member must default to false");

        let bad =
            encode_schedule_request(&decoded).replace("\"contention\":false", "\"contention\":7");
        let err = decode_request(&bad).unwrap_err();
        assert!(err.contains("contention"), "{err}");
    }

    /// Every `u64 -> u32` narrowing site must reject an oversized value
    /// with an error naming the field, instead of silently truncating it
    /// into a valid-looking request.
    #[test]
    fn oversized_u32_fields_are_rejected_with_positioned_errors() {
        let huge = (u64::from(u32::MAX) + 1).to_string();
        let fir = kernels::fir(4, 32);
        let ws = WireSchedule {
            body: fir,
            machine: WireMachine {
                unclustered: false,
                clusters: 4,
                copy_units: 1,
                cqrf_capacity: Some(16),
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig { ii_seed: Some(3), ..DmsConfig::default() },
            verify_trips: Some(8),
            contention: false,
        };
        let line = encode_schedule_request(&ws);
        assert!(decode_request(&line).is_ok(), "the baseline request must decode");

        // (pattern in the encoded line, expected field name in the error)
        let cases = [
            ("\"clusters\":4", "\"clusters\":", "machine clusters"),
            ("\"copy_units\":1", "\"copy_units\":", "machine copy_units"),
            ("\"cqrf_capacity\":16", "\"cqrf_capacity\":", "machine cqrf_capacity"),
            ("\"ii_seed\":3", "\"ii_seed\":", "ii_seed"),
        ];
        for (needle, prefix, field) in cases {
            let bad = line.replace(needle, &format!("{prefix}{huge}"));
            assert_ne!(bad, line, "pattern {needle} not found in the encoded request");
            let err = decode_request(&bad).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
            assert!(err.contains("does not fit in 32 bits"), "{field}: got {err}");
        }
    }

    #[test]
    fn clusters_and_verify_trips_are_bounded_inclusively() {
        let line = encode_schedule_request(&WireSchedule {
            body: kernels::fir(4, 32),
            machine: WireMachine {
                unclustered: true,
                clusters: MAX_CLUSTERS,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Ims,
            dms: DmsConfig::default(),
            verify_trips: Some(MAX_VERIFY_TRIPS),
            contention: false,
        });
        assert!(decode_request(&line).is_ok(), "the bounds themselves are accepted");
        let over = line.replace(
            &format!("\"clusters\":{MAX_CLUSTERS}"),
            &format!("\"clusters\":{}", MAX_CLUSTERS + 1),
        );
        assert!(decode_request(&over).unwrap_err().contains("machine clusters"));
    }

    /// Edge latency/distance and operand fields narrow too: patch the loop
    /// object directly (their values are not unique in a full request
    /// line).
    #[test]
    fn oversized_loop_fields_are_rejected_with_positioned_errors() {
        let huge = i64::from(u32::MAX) + 1;
        let fir = kernels::fir(4, 32);

        // edge latency (index 3) and distance (index 4)
        for (index, field) in [(3usize, "edge latency"), (4usize, "edge distance")] {
            let mut json = loop_json(&fir);
            let Json::Obj(members) = &mut json else { unreachable!() };
            let edges = members.iter_mut().find(|(k, _)| k == "edges").unwrap();
            let Json::Arr(list) = &mut edges.1 else { unreachable!() };
            let Json::Arr(edge) = &mut list[0] else { unreachable!() };
            edge[index] = Json::Num(huge);
            let err = decode_loop(&json).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
        }

        // operand producer slot and distance of a "def" read
        for (index, field) in [(1usize, "operand producer slot"), (2usize, "operand distance")] {
            let mut bad = Json::Arr(vec![Json::Str("def".to_string()), Json::Num(0), Json::Num(0)]);
            let Json::Arr(parts) = &mut bad else { unreachable!() };
            parts[index] = Json::Num(huge);
            let err = decode_operand(&bad).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
        }

        // invariant index
        let bad = Json::Arr(vec![Json::Str("inv".to_string()), Json::Num(huge)]);
        let err = decode_operand(&bad).unwrap_err();
        assert!(err.contains("invariant index"), "got {err}");
    }

    #[test]
    fn malformed_edges_are_rejected_not_panicked_on() {
        let fir = kernels::fir(4, 32);
        let mut json = loop_json(&fir);
        if let Json::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "edges" {
                    *v = Json::Arr(vec![Json::Arr(vec![
                        Json::Num(999),
                        Json::Num(0),
                        Json::Str("flow".to_string()),
                        Json::Num(1),
                        Json::Num(0),
                    ])]);
                }
            }
        }
        assert!(decode_loop(&json).is_err());
    }

    #[test]
    fn stats_metrics_and_shutdown_requests_decode() {
        assert!(matches!(decode_request(&encode_stats_request()), Ok(WireRequest::Stats)));
        assert!(matches!(decode_request(&encode_metrics_request()), Ok(WireRequest::Metrics)));
        assert!(matches!(decode_request(&encode_shutdown_request()), Ok(WireRequest::Shutdown)));
        assert!(decode_request("{}").is_err());
    }

    #[test]
    fn a_metrics_response_escapes_the_multiline_exposition_into_one_line() {
        let text = "# TYPE dms_cache_hits_total counter\ndms_cache_hits_total 3\n";
        let line = encode_metrics_response(text);
        assert!(!line.contains('\n'), "wire responses are single lines: {line}");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("metrics").and_then(Json::as_str), Some(text));
    }
}
