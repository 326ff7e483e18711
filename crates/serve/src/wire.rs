//! The versioned JSONL wire protocol of `losac-serve`.
//!
//! Every frame is one line of JSON with a `"v"` protocol-version field
//! (absent = version 1) and a `"type"` discriminator. Parsers on both
//! sides ignore unknown object keys and unknown frame types, so a `"v"`
//! bump that only *adds* information interoperates with older peers;
//! structurally broken frames get a typed [`ErrorCode::Malformed`]
//! response, never a dropped connection.
//!
//! Client → server frames: `submit`, `status`, `cancel`, `shutdown`,
//! `ping`. Server → client frames: `listening`, `accepted`, `result`,
//! `event` (forwarded `engine.*` telemetry for subscribed submits),
//! `status`, `error`, `pong`, `shutting_down`. See `DESIGN.md` §6h for
//! the field-by-field reference.
//!
//! Performance rows travel as JSON numbers rendered with Rust's
//! shortest-roundtrip float formatting, so a row parsed back from the
//! wire is **bit-identical** to the row the engine produced — the
//! daemon's results can be compared bitwise against an offline
//! [`losac_engine::Engine::run_batch`] of the same jobs.

use crate::json::Value;
use losac_core::prelude::Case;
use losac_engine::{JobOutcome, SweepBuilder, SynthesisJob};
use losac_layout::slicing::ShapeConstraint;
use losac_obs::json::{array, number, Object};
use losac_obs::Record;
use losac_sizing::{OtaSpecs, Performance, TopologyRegistry};
use losac_tech::{Corner, Technology};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Protocol version emitted in every frame. Missing `"v"` on input is
/// read as version 1; any version ≥ 1 is accepted (unknown fields are
/// ignored by construction).
pub const WIRE_VERSION: u64 = 1;

/// Typed error categories carried in `error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame was not valid JSON, not an object, or missing/mistyping
    /// a required field.
    Malformed,
    /// The frame was well-formed but its type or version is not
    /// supported.
    Unsupported,
    /// A `submit`'s sweep references unknown technologies, topologies,
    /// cases or shapes, expands to nothing runnable, or expands to more
    /// jobs than one sweep may hold.
    BadSweep,
    /// The client already has its maximum number of submits in flight.
    QuotaExceeded,
    /// The server is draining and no longer accepts submits.
    Draining,
    /// A `cancel` referenced an id that is neither queued nor running.
    UnknownId,
    /// The global queue is full.
    Overloaded,
    /// An unexpected server-side failure.
    Internal,
    /// An error code this build does not know (newer peer).
    Unknown,
}

impl ErrorCode {
    /// Wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::BadSweep => "bad_sweep",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Draining => "draining",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::Unknown => "unknown",
        }
    }

    fn from_wire(s: &str) -> Self {
        match s {
            "malformed" => ErrorCode::Malformed,
            "unsupported" => ErrorCode::Unsupported,
            "bad_sweep" => ErrorCode::BadSweep,
            "quota_exceeded" => ErrorCode::QuotaExceeded,
            "draining" => ErrorCode::Draining,
            "unknown_id" => ErrorCode::UnknownId,
            "overloaded" => ErrorCode::Overloaded,
            "internal" => ErrorCode::Internal,
            _ => ErrorCode::Unknown,
        }
    }
}

/// A protocol-level failure, rendered as an `error` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Typed category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// The request id the error refers to, when one was recoverable
    /// from the offending frame.
    pub id: Option<String>,
}

impl WireError {
    /// An error of `code` with no request id attached.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            id: None,
        }
    }

    /// Same error referring to request `id`.
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }

    fn malformed(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Malformed, message)
    }

    fn bad_sweep(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadSweep, message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// How a `shutdown` frame asks the daemon to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShutdownMode {
    /// Stop accepting submits, finish everything queued, then exit.
    #[default]
    Drain,
    /// Stop accepting submits, cancel in-flight work through the
    /// engine's [`losac_engine::CancelToken`], answer queued requests
    /// with `cancelled` outcomes, then exit.
    Abort,
}

impl ShutdownMode {
    /// Wire form of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Abort => "abort",
        }
    }
}

/// A declarative sweep: the wire form of [`SweepBuilder`]. Axes left
/// empty take the builder's defaults (case 4, min-area, the base
/// specification), so the empty spec is one default job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSpec {
    /// Technology name: `"cmos06"` (default when empty) or `"cmos035"`.
    pub tech: String,
    /// Topology axis (names resolved in [`TopologyRegistry::builtin`]);
    /// empty = the default folded-cascode plan.
    pub topologies: Vec<String>,
    /// Table-1 case numbers (1–4).
    pub cases: Vec<u8>,
    /// Shape-constraint axis.
    pub shapes: Vec<ShapeConstraint>,
    /// GBW axis (Hz).
    pub gbw: Vec<f64>,
    /// Phase-margin axis (degrees).
    pub pm: Vec<f64>,
    /// Load-capacitance axis (F).
    pub cl: Vec<f64>,
    /// Supply-voltage axis (V).
    pub vdd: Vec<f64>,
    /// Process-corner axis (`tt`/`ss`/`ff`); empty = typical only.
    pub corners: Vec<Corner>,
    /// Temperature axis (°C); empty = nominal 27 °C.
    pub temps_c: Vec<f64>,
    /// Supply-scale axis (1.0 = nominal VDD); empty = nominal.
    pub supply_scales: Vec<f64>,
    /// Monte-Carlo mismatch axis: `(samples, seed)`.
    pub monte_carlo: Option<(u32, u64)>,
    /// Override of the flow convergence tolerance.
    pub tolerance: Option<f64>,
    /// Override of the layout-call budget per job.
    pub max_layout_calls: Option<usize>,
    /// Per-job wall-clock budget (ms).
    pub budget_ms: Option<u64>,
}

fn case_from_num(n: u8) -> Option<Case> {
    match n {
        1 => Some(Case::NoParasitics),
        2 => Some(Case::UnfoldedDiffusion),
        3 => Some(Case::ExactDiffusion),
        4 => Some(Case::AllParasitics),
        _ => None,
    }
}

/// The most jobs one sweep may expand to. The daemon expands a sweep
/// when it accepts it, before any quota or queue check, so the bound is
/// checked on the axis lengths before anything is allocated.
const MAX_SWEEP_JOBS: u64 = 65_536;

/// Refuse a job the engine would fail only later, some of them after a
/// whole preparation: specs or flow options outside their validated
/// ranges, a temperature not above absolute zero, a scaled supply
/// outside the specs' supply window, or shape bounds that are not finite
/// and positive.
fn check_job(job: &SynthesisJob) -> Result<(), WireError> {
    let bad = |what: String| WireError::bad_sweep(format!("job {}: {what}", job.label));
    job.specs.validate().map_err(bad)?;
    job.options
        .flow_options(false)
        .validate()
        .map_err(|e| bad(e.to_string()))?;
    let pvt = &job.options.eval.scenario.pvt;
    if !(pvt.temp_k().is_finite() && pvt.temp_k() > 0.0) {
        return Err(bad(format!(
            "temperature {} °C is not above absolute zero",
            pvt.temp_c
        )));
    }
    let vdd = job.specs.vdd * pvt.vdd_scale;
    let (lo, hi) = OtaSpecs::VDD_RANGE;
    if !(vdd > lo && vdd < hi) {
        return Err(bad(format!(
            "supply {vdd} V (scale {}) is outside {lo}-{hi} V",
            pvt.vdd_scale
        )));
    }
    let shape_ok = match job.options.shape {
        ShapeConstraint::MinArea => true,
        ShapeConstraint::MaxHeight(nm) | ShapeConstraint::MaxWidth(nm) => nm > 0,
        ShapeConstraint::Aspect(r) => r.is_finite() && r > 0.0,
    };
    if !shape_ok {
        return Err(bad(format!(
            "shape {:?} needs a finite, positive bound",
            job.options.shape
        )));
    }
    Ok(())
}

impl SweepSpec {
    /// Expand into the same job list an offline [`SweepBuilder`] with
    /// these axes produces — *the* property the daemon's bitwise-equality
    /// guarantee needs: client and server expand one spec through one
    /// code path.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadSweep`] on unknown technology, topology, case or
    /// shape names, and when the sweep would expand to more than 65 536
    /// jobs.
    pub fn to_jobs(&self) -> Result<Vec<SynthesisJob>, WireError> {
        // An empty axis contributes its one default point.
        let draws = self.monte_carlo.map_or(1, |(n, _)| u64::from(n));
        [
            self.topologies.len(),
            self.cases.len(),
            self.shapes.len(),
            self.gbw.len(),
            self.pm.len(),
            self.cl.len(),
            self.vdd.len(),
            self.corners.len(),
            self.temps_c.len(),
            self.supply_scales.len(),
        ]
        .into_iter()
        .map(|n| n as u64)
        .chain([draws])
        .try_fold(1u64, |jobs, n| jobs.checked_mul(n.max(1)))
        .filter(|&jobs| jobs <= MAX_SWEEP_JOBS)
        .ok_or_else(|| {
            WireError::bad_sweep(format!("sweep expands to more than {MAX_SWEEP_JOBS} jobs"))
        })?;
        // Every expansion of one name yields the same `Arc`, so a
        // daemon's preparation memo matches a design point across
        // requests (it compares plans by pointer).
        static CMOS06: OnceLock<Arc<Technology>> = OnceLock::new();
        static CMOS035: OnceLock<Arc<Technology>> = OnceLock::new();
        let (tech, make): (_, fn() -> Technology) = match self.tech.as_str() {
            "" | "cmos06" => (&CMOS06, Technology::cmos06),
            "cmos035" => (&CMOS035, Technology::cmos035),
            other => {
                return Err(WireError::bad_sweep(format!(
                    "unknown technology {other:?} (expected cmos06 or cmos035)"
                )))
            }
        };
        let tech = Arc::clone(tech.get_or_init(|| Arc::new(make())));
        let registry = TopologyRegistry::builtin();
        let mut b = SweepBuilder::new(tech, OtaSpecs::paper_example());
        if !self.topologies.is_empty() {
            let plans = self
                .topologies
                .iter()
                .map(|name| {
                    registry.get(name).ok_or_else(|| {
                        WireError::bad_sweep(format!(
                            "unknown topology {name:?} (available: {})",
                            registry.names().join(", ")
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            b = b.over_topologies(plans);
        }
        if !self.cases.is_empty() {
            let cases = self
                .cases
                .iter()
                .map(|&n| {
                    case_from_num(n)
                        .ok_or_else(|| WireError::bad_sweep(format!("unknown case {n} (1-4)")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            b = b.over_cases(cases);
        }
        if !self.shapes.is_empty() {
            b = b.over_shapes(self.shapes.iter().copied());
        }
        for (axis, values) in [
            (losac_engine::SpecAxis::Gbw, &self.gbw),
            (losac_engine::SpecAxis::PhaseMargin, &self.pm),
            (losac_engine::SpecAxis::LoadCap, &self.cl),
            (losac_engine::SpecAxis::Vdd, &self.vdd),
        ] {
            if !values.is_empty() {
                b = b.over_spec_axis(axis, values.iter().copied());
            }
        }
        if !self.corners.is_empty() {
            b = b.corners(self.corners.iter().copied());
        }
        if !self.temps_c.is_empty() {
            b = b.temperatures(self.temps_c.iter().copied());
        }
        if !self.supply_scales.is_empty() {
            b = b.supplies(self.supply_scales.iter().copied());
        }
        if let Some((n, seed)) = self.monte_carlo {
            b = b.monte_carlo(n, seed);
        }
        if let Some(ms) = self.budget_ms {
            b = b.with_budget(Duration::from_millis(ms));
        }
        let mut jobs = b.build();
        for job in &mut jobs {
            if let Some(t) = self.tolerance {
                job.options.tolerance = t;
            }
            if let Some(m) = self.max_layout_calls {
                job.options.max_layout_calls = m;
            }
            check_job(job)?;
        }
        Ok(jobs)
    }

    /// The JSON object form used inside `submit` frames.
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        if !self.tech.is_empty() {
            o = o.str("tech", &self.tech);
        }
        if !self.topologies.is_empty() {
            o = o.raw(
                "topologies",
                array(self.topologies.iter().map(|t| losac_obs::json::string(t))),
            );
        }
        if !self.cases.is_empty() {
            o = o.raw("cases", array(self.cases.iter().map(|c| c.to_string())));
        }
        if !self.shapes.is_empty() {
            o = o.raw(
                "shapes",
                array(
                    self.shapes
                        .iter()
                        .map(|s| losac_obs::json::string(&s.to_string())),
                ),
            );
        }
        for (key, values) in [
            ("gbw", &self.gbw),
            ("pm", &self.pm),
            ("cl", &self.cl),
            ("vdd", &self.vdd),
        ] {
            if !values.is_empty() {
                o = o.raw(key, array(values.iter().map(|v| number(*v))));
            }
        }
        if !self.corners.is_empty() {
            o = o.raw(
                "corners",
                array(
                    self.corners
                        .iter()
                        .map(|c| losac_obs::json::string(c.label())),
                ),
            );
        }
        for (key, values) in [
            ("temps_c", &self.temps_c),
            ("supply_scales", &self.supply_scales),
        ] {
            if !values.is_empty() {
                o = o.raw(key, array(values.iter().map(|v| number(*v))));
            }
        }
        if let Some((n, seed)) = self.monte_carlo {
            o = o.u64("mc_samples", n as u64).u64("mc_seed", seed);
        }
        if let Some(t) = self.tolerance {
            o = o.f64("tolerance", t);
        }
        if let Some(m) = self.max_layout_calls {
            o = o.u64("max_layout_calls", m as u64);
        }
        if let Some(ms) = self.budget_ms {
            o = o.u64("budget_ms", ms);
        }
        o.build()
    }

    fn from_value(v: &Value) -> Result<Self, WireError> {
        let mut spec = SweepSpec::default();
        if v.as_obj().is_none() {
            return Err(WireError::bad_sweep("\"sweep\" must be an object"));
        }
        if let Some(t) = v.get("tech") {
            spec.tech = t
                .as_str()
                .ok_or_else(|| WireError::bad_sweep("\"tech\" must be a string"))?
                .to_owned();
        }
        if let Some(items) = v.get("topologies") {
            for item in items
                .as_arr()
                .ok_or_else(|| WireError::bad_sweep("\"topologies\" must be an array"))?
            {
                spec.topologies.push(
                    item.as_str()
                        .ok_or_else(|| WireError::bad_sweep("topology names must be strings"))?
                        .to_owned(),
                );
            }
        }
        if let Some(items) = v.get("cases") {
            for item in items
                .as_arr()
                .ok_or_else(|| WireError::bad_sweep("\"cases\" must be an array"))?
            {
                let n = item
                    .as_u64()
                    .filter(|&n| n <= u8::MAX as u64)
                    .ok_or_else(|| WireError::bad_sweep("case entries must be integers"))?;
                spec.cases.push(n as u8);
            }
        }
        if let Some(items) = v.get("shapes") {
            for item in items
                .as_arr()
                .ok_or_else(|| WireError::bad_sweep("\"shapes\" must be an array"))?
            {
                let text = item
                    .as_str()
                    .ok_or_else(|| WireError::bad_sweep("shape entries must be strings"))?;
                spec.shapes.push(
                    text.parse::<ShapeConstraint>()
                        .map_err(|e| WireError::bad_sweep(e.to_string()))?,
                );
            }
        }
        if let Some(items) = v.get("corners") {
            for item in items
                .as_arr()
                .ok_or_else(|| WireError::bad_sweep("\"corners\" must be an array"))?
            {
                let text = item
                    .as_str()
                    .ok_or_else(|| WireError::bad_sweep("corner entries must be strings"))?;
                spec.corners.push(Corner::from_label(text).ok_or_else(|| {
                    WireError::bad_sweep(format!("unknown corner {text:?} (tt, ss, ff)"))
                })?);
            }
        }
        for (key, slot) in [
            ("gbw", &mut spec.gbw),
            ("pm", &mut spec.pm),
            ("cl", &mut spec.cl),
            ("vdd", &mut spec.vdd),
            ("temps_c", &mut spec.temps_c),
            ("supply_scales", &mut spec.supply_scales),
        ] {
            if let Some(items) = v.get(key) {
                for item in items.as_arr().ok_or_else(|| {
                    WireError::bad_sweep(format!("\"{key}\" must be an array of numbers"))
                })? {
                    slot.push(item.as_f64().ok_or_else(|| {
                        WireError::bad_sweep(format!("\"{key}\" entries must be numbers"))
                    })?);
                }
            }
        }
        match (v.get("mc_samples"), v.get("mc_seed")) {
            (Some(n), seed) => {
                let n = n
                    .as_u64()
                    .filter(|&n| n <= u32::MAX as u64)
                    .ok_or_else(|| WireError::bad_sweep("\"mc_samples\" must be an integer"))?;
                let seed = match seed {
                    Some(s) => s
                        .as_u64()
                        .ok_or_else(|| WireError::bad_sweep("\"mc_seed\" must be an integer"))?,
                    None => 0,
                };
                spec.monte_carlo = Some((n as u32, seed));
            }
            (None, Some(_)) => {
                return Err(WireError::bad_sweep("\"mc_seed\" requires \"mc_samples\""))
            }
            (None, None) => {}
        }
        if let Some(t) = v.get("tolerance") {
            spec.tolerance = Some(
                t.as_f64()
                    .ok_or_else(|| WireError::bad_sweep("\"tolerance\" must be a number"))?,
            );
        }
        if let Some(m) = v.get("max_layout_calls") {
            spec.max_layout_calls =
                Some(m.as_u64().ok_or_else(|| {
                    WireError::bad_sweep("\"max_layout_calls\" must be an integer")
                })? as usize);
        }
        if let Some(ms) = v.get("budget_ms") {
            spec.budget_ms = Some(
                ms.as_u64()
                    .ok_or_else(|| WireError::bad_sweep("\"budget_ms\" must be an integer"))?,
            );
        }
        Ok(spec)
    }
}

/// A `submit` request: one sweep to queue.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubmitRequest {
    /// Client-chosen request id (the server assigns `req-<seq>` when
    /// absent). Echoed on every frame that refers to this request.
    pub id: Option<String>,
    /// Larger runs first; ties run in submission order. Default 0.
    pub priority: i64,
    /// Wall-clock deadline for the *whole request*, counted from accept
    /// (ms). Mapped onto the engine's batch deadline: jobs still
    /// unfinished at the deadline come back `timed_out`.
    pub deadline_ms: Option<u64>,
    /// Stream `engine.*` telemetry of this request's batch back as
    /// `event` frames.
    pub subscribe: bool,
    /// What to run.
    pub sweep: SweepSpec,
}

impl SubmitRequest {
    /// The wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Object::new().u64("v", WIRE_VERSION).str("type", "submit");
        if let Some(id) = &self.id {
            o = o.str("id", id);
        }
        if self.priority != 0 {
            o = o.raw("priority", self.priority.to_string());
        }
        if let Some(ms) = self.deadline_ms {
            o = o.u64("deadline_ms", ms);
        }
        if self.subscribe {
            o = o.bool("subscribe", true);
        }
        o.raw("sweep", self.sweep.to_json()).build()
    }
}

/// Every client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue a sweep (boxed: the sweep axes dwarf every other variant).
    Submit(Box<SubmitRequest>),
    /// Report queue depth, state and counters.
    Status,
    /// Cancel a queued or running request by id.
    Cancel {
        /// The id given at submit time (or assigned by the server).
        id: String,
    },
    /// Begin shutdown.
    Shutdown {
        /// Drain or abort.
        mode: ShutdownMode,
    },
    /// Liveness probe.
    Ping,
}

/// Accept a frame's `"v"` field: absent = 1, any integer ≥ 1 is fine
/// (additive changes only), anything else is malformed.
fn check_version(v: &Value) -> Result<(), WireError> {
    match v.get("v") {
        None => Ok(()),
        Some(field) => match field.as_u64() {
            Some(n) if n >= 1 => Ok(()),
            _ => Err(WireError::malformed(
                "\"v\" must be a protocol version >= 1",
            )),
        },
    }
}

fn frame_id(v: &Value) -> Option<String> {
    v.get("id").and_then(Value::as_str).map(str::to_owned)
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] (carrying the request id when one was
    /// readable) for the server to answer with — the connection stays up.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let v = Value::parse(line.trim())
            .map_err(|e| WireError::malformed(format!("invalid JSON: {e}")))?;
        if v.as_obj().is_none() {
            return Err(WireError::malformed("frame must be a JSON object"));
        }
        let id = frame_id(&v);
        let attach = |mut e: WireError| {
            if e.id.is_none() {
                e.id = id.clone();
            }
            e
        };
        check_version(&v).map_err(attach)?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| attach(WireError::malformed("missing \"type\"")))?;
        match ty {
            "submit" => {
                let sweep = match v.get("sweep") {
                    Some(s) => SweepSpec::from_value(s).map_err(attach)?,
                    None => SweepSpec::default(),
                };
                let priority = match v.get("priority") {
                    None => 0,
                    Some(p) => p.as_i64().ok_or_else(|| {
                        attach(WireError::malformed("\"priority\" must be an integer"))
                    })?,
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(d) => Some(d.as_u64().ok_or_else(|| {
                        attach(WireError::malformed("\"deadline_ms\" must be an integer"))
                    })?),
                };
                let subscribe = match v.get("subscribe") {
                    None => false,
                    Some(s) => s.as_bool().ok_or_else(|| {
                        attach(WireError::malformed("\"subscribe\" must be a boolean"))
                    })?,
                };
                Ok(Request::Submit(Box::new(SubmitRequest {
                    id,
                    priority,
                    deadline_ms,
                    subscribe,
                    sweep,
                })))
            }
            "status" => Ok(Request::Status),
            "cancel" => Ok(Request::Cancel {
                id: id.ok_or_else(|| WireError::malformed("\"cancel\" needs an \"id\""))?,
            }),
            "shutdown" => {
                let mode = match v.get("mode").and_then(Value::as_str) {
                    None | Some("drain") => ShutdownMode::Drain,
                    Some("abort") => ShutdownMode::Abort,
                    Some(other) => {
                        return Err(attach(WireError::malformed(format!(
                            "unknown shutdown mode {other:?} (drain or abort)"
                        ))))
                    }
                };
                Ok(Request::Shutdown { mode })
            }
            "ping" => Ok(Request::Ping),
            other => Err(attach(WireError::new(
                ErrorCode::Unsupported,
                format!("unknown request type {other:?}"),
            ))),
        }
    }

    /// The wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit(s) => s.to_json(),
            Request::Status => Object::new()
                .u64("v", WIRE_VERSION)
                .str("type", "status")
                .build(),
            Request::Cancel { id } => Object::new()
                .u64("v", WIRE_VERSION)
                .str("type", "cancel")
                .str("id", id)
                .build(),
            Request::Shutdown { mode } => Object::new()
                .u64("v", WIRE_VERSION)
                .str("type", "shutdown")
                .str("mode", mode.as_str())
                .build(),
            Request::Ping => Object::new()
                .u64("v", WIRE_VERSION)
                .str("type", "ping")
                .build(),
        }
    }
}

// ---------------------------------------------------------------------------
// Performance serialisation (the full 11-field Table-1 row).

const PERF_KEYS: [&str; 11] = [
    "dc_gain_db",
    "gbw_hz",
    "phase_margin_deg",
    "slew_rate_v_per_s",
    "cmrr_db",
    "offset_v",
    "output_resistance_ohm",
    "input_noise_rms_v",
    "thermal_noise_density_v_rthz",
    "flicker_noise_density_v_rthz",
    "power_w",
];

/// The performance row in wire field order.
pub fn perf_values(p: &Performance) -> [f64; 11] {
    [
        p.dc_gain_db,
        p.gbw,
        p.phase_margin,
        p.slew_rate,
        p.cmrr_db,
        p.offset,
        p.output_resistance,
        p.input_noise_rms,
        p.thermal_noise_density,
        p.flicker_noise_density,
        p.power,
    ]
}

/// Bit pattern of a row, for exact comparisons across the wire.
pub fn perf_bits(p: &Performance) -> [u64; 11] {
    perf_values(p).map(f64::to_bits)
}

/// Serialise the *complete* Table-1 row (unlike `losac-bench`'s
/// `perf_json`, which drops the two noise densities): the daemon's
/// bitwise-equality contract must cover every field.
pub fn perf_json_full(p: &Performance) -> String {
    PERF_KEYS
        .iter()
        .zip(perf_values(p))
        .fold(Object::new(), |o, (key, v)| o.f64(key, v))
        .build()
}

/// Parse a wire performance row. `null` fields (non-finite values render
/// as JSON `null`) come back as NaN.
pub fn perf_from_value(v: &Value) -> Option<Performance> {
    let mut values = [0.0; 11];
    for (slot, key) in values.iter_mut().zip(PERF_KEYS) {
        *slot = match v.get(key)? {
            Value::Null => f64::NAN,
            field => field.as_f64()?,
        };
    }
    Some(Performance {
        dc_gain_db: values[0],
        gbw: values[1],
        phase_margin: values[2],
        slew_rate: values[3],
        cmrr_db: values[4],
        offset: values[5],
        output_resistance: values[6],
        input_noise_rms: values[7],
        thermal_noise_density: values[8],
        flicker_noise_density: values[9],
        power: values[10],
    })
}

// ---------------------------------------------------------------------------
// Server → client frames.

/// One job's outcome as it travels in a `result` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeSummary {
    /// The job's sweep label.
    pub label: String,
    /// `finished` / `failed` / `panicked` / `timed_out` / `cancelled`
    /// (see [`JobOutcome::status`]).
    pub status: String,
    /// Failure detail, when the job produced no result.
    pub error: Option<String>,
    /// Layout-tool calls spent.
    pub layout_calls: Option<u64>,
    /// The sizing tool's own numbers.
    pub synthesized: Option<Performance>,
    /// Numbers measured on the extracted netlist.
    pub extracted: Option<Performance>,
}

impl OutcomeSummary {
    fn from_value(v: &Value) -> Option<Self> {
        Some(Self {
            label: v.get("label")?.as_str()?.to_owned(),
            status: v.get("status")?.as_str()?.to_owned(),
            error: v.get("error").and_then(Value::as_str).map(str::to_owned),
            layout_calls: v.get("layout_calls").and_then(Value::as_u64),
            synthesized: v.get("synthesized").and_then(perf_from_value),
            extracted: v.get("extracted").and_then(perf_from_value),
        })
    }
}

/// Serialise one outcome for a `result` frame.
pub fn outcome_json(label: &str, outcome: &JobOutcome) -> String {
    let mut o = Object::new()
        .str("label", label)
        .str("status", outcome.status());
    match outcome {
        JobOutcome::Failed(e) => o = o.str("error", &e.to_string()),
        JobOutcome::Panicked(m) => o = o.str("error", m),
        _ => {}
    }
    match outcome.result() {
        Some(r) => o
            .u64("layout_calls", r.layout_calls as u64)
            .raw("synthesized", perf_json_full(&r.synthesized))
            .raw("extracted", perf_json_full(&r.extracted))
            .build(),
        None => o.build(),
    }
}

/// Server status as it travels in a `status` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusInfo {
    /// `accepting` or `draining`.
    pub state: String,
    /// Requests queued (not yet started).
    pub queued: u64,
    /// Requests currently running (0 or 1: batches run one at a time,
    /// parallelism lives inside the batch).
    pub running: u64,
    /// Jobs completed since the daemon started.
    pub jobs_done: u64,
    /// Engine worker threads per batch.
    pub workers: u64,
    /// Entries in the shared evaluation cache's memory layer; with a
    /// cache directory, only the entries read back from disk.
    pub cache_entries: u64,
    /// Process-wide counter totals (`sizing.eval.cache_hit`, …).
    pub counters: Vec<(String, u64)>,
}

impl StatusInfo {
    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Every server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Printed on stdout by the daemon once the socket is bound; also
    /// how `--port 0` callers discover the actual port.
    Listening {
        /// The bound address, e.g. `127.0.0.1:41733`.
        addr: String,
    },
    /// A submit was queued.
    Accepted {
        /// Request id (client-chosen or server-assigned).
        id: String,
        /// Jobs the sweep expanded to.
        jobs: u64,
        /// Queue depth after this request.
        queue_depth: u64,
    },
    /// A request finished; one entry per job in submission order.
    Result {
        /// Request id.
        id: String,
        /// Per-job outcomes.
        outcomes: Vec<OutcomeSummary>,
        /// The engine's batch telemetry (wall clock, worker utilisation…)
        /// as unparsed JSON.
        telemetry: Value,
    },
    /// A forwarded `engine.*` telemetry event for a subscribed request.
    Event {
        /// Request id the event belongs to.
        id: String,
        /// Event name (`engine.job.done`, …).
        name: String,
        /// Event fields as unparsed JSON.
        fields: Value,
    },
    /// Acknowledges a `cancel`: the request was dequeued (terminal for a
    /// queued request) or its engine's cancel token was pulled (a
    /// `result` with `cancelled` outcomes still follows).
    Cancelled {
        /// The cancelled request's id.
        id: String,
    },
    /// Answer to a `status` request.
    Status(StatusInfo),
    /// A request (or frame) was rejected.
    Error(WireError),
    /// Answer to `ping`.
    Pong,
    /// Acknowledges a `shutdown` request.
    ShuttingDown {
        /// The mode the daemon is stopping in.
        mode: ShutdownMode,
    },
    /// A frame type this build does not know (newer server); carried so
    /// clients can skip it instead of erroring.
    Unknown {
        /// The unrecognised `"type"` value.
        ty: String,
    },
}

/// Render the `listening` frame.
pub fn frame_listening(addr: &str) -> String {
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "listening")
        .str("addr", addr)
        .build()
}

/// Render an `accepted` frame.
pub fn frame_accepted(id: &str, jobs: u64, queue_depth: u64) -> String {
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "accepted")
        .str("id", id)
        .u64("jobs", jobs)
        .u64("queue_depth", queue_depth)
        .build()
}

/// Render a `result` frame from rendered outcome objects and telemetry.
pub fn frame_result(id: &str, outcomes: Vec<String>, telemetry_json: String) -> String {
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "result")
        .str("id", id)
        .raw("outcomes", array(outcomes))
        .raw("telemetry", telemetry_json)
        .build()
}

/// Render an `event` frame forwarding one telemetry record.
pub fn frame_event(id: &str, record: &Record) -> String {
    let fields = record.fields.iter().fold(Object::new(), |o, field| {
        o.raw(field.key, field.value.to_json())
    });
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "event")
        .str("id", id)
        .str("name", record.name)
        .u64("t_us", record.t_us)
        .raw("fields", fields.build())
        .build()
}

/// Render a `cancelled` frame.
pub fn frame_cancelled(id: &str) -> String {
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "cancelled")
        .str("id", id)
        .build()
}

/// Render a `status` frame.
pub fn frame_status(info: &StatusInfo) -> String {
    let counters = info
        .counters
        .iter()
        .fold(Object::new(), |o, (name, v)| o.u64(name, *v))
        .build();
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "status")
        .str("state", &info.state)
        .u64("queued", info.queued)
        .u64("running", info.running)
        .u64("jobs_done", info.jobs_done)
        .u64("workers", info.workers)
        .u64("cache_entries", info.cache_entries)
        .raw("counters", counters)
        .build()
}

/// Render an `error` frame.
pub fn frame_error(err: &WireError) -> String {
    let mut o = Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "error")
        .str("code", err.code.as_str())
        .str("message", &err.message);
    if let Some(id) = &err.id {
        o = o.str("id", id);
    }
    o.build()
}

/// Render a `pong` frame.
pub fn frame_pong() -> String {
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "pong")
        .build()
}

/// Render a `shutting_down` frame.
pub fn frame_shutting_down(mode: ShutdownMode) -> String {
    Object::new()
        .u64("v", WIRE_VERSION)
        .str("type", "shutting_down")
        .str("mode", mode.as_str())
        .build()
}

impl Frame {
    /// Parse one server → client line.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] when the line is not a valid frame.
    /// Unknown frame *types* parse as [`Frame::Unknown`] instead — the
    /// forward-compatibility contract.
    pub fn parse(line: &str) -> Result<Frame, WireError> {
        let v = Value::parse(line.trim())
            .map_err(|e| WireError::malformed(format!("invalid JSON: {e}")))?;
        if v.as_obj().is_none() {
            return Err(WireError::malformed("frame must be a JSON object"));
        }
        check_version(&v)?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError::malformed("missing \"type\""))?;
        let need_id =
            || frame_id(&v).ok_or_else(|| WireError::malformed("frame is missing its \"id\""));
        match ty {
            "listening" => Ok(Frame::Listening {
                addr: v
                    .get("addr")
                    .and_then(Value::as_str)
                    .ok_or_else(|| WireError::malformed("\"listening\" needs \"addr\""))?
                    .to_owned(),
            }),
            "accepted" => Ok(Frame::Accepted {
                id: need_id()?,
                jobs: v.get("jobs").and_then(Value::as_u64).unwrap_or(0),
                queue_depth: v.get("queue_depth").and_then(Value::as_u64).unwrap_or(0),
            }),
            "result" => {
                let outcomes = v
                    .get("outcomes")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| WireError::malformed("\"result\" needs \"outcomes\""))?
                    .iter()
                    .map(|o| {
                        OutcomeSummary::from_value(o)
                            .ok_or_else(|| WireError::malformed("malformed outcome entry"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Frame::Result {
                    id: need_id()?,
                    outcomes,
                    telemetry: v.get("telemetry").cloned().unwrap_or(Value::Null),
                })
            }
            "event" => Ok(Frame::Event {
                id: need_id()?,
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| WireError::malformed("\"event\" needs \"name\""))?
                    .to_owned(),
                fields: v.get("fields").cloned().unwrap_or(Value::Null),
            }),
            "status" => {
                let counters = v
                    .get("counters")
                    .and_then(Value::as_obj)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|(k, val)| val.as_u64().map(|n| (k.clone(), n)))
                            .collect()
                    })
                    .unwrap_or_default();
                Ok(Frame::Status(StatusInfo {
                    state: v
                        .get("state")
                        .and_then(Value::as_str)
                        .unwrap_or("accepting")
                        .to_owned(),
                    queued: v.get("queued").and_then(Value::as_u64).unwrap_or(0),
                    running: v.get("running").and_then(Value::as_u64).unwrap_or(0),
                    jobs_done: v.get("jobs_done").and_then(Value::as_u64).unwrap_or(0),
                    workers: v.get("workers").and_then(Value::as_u64).unwrap_or(0),
                    cache_entries: v.get("cache_entries").and_then(Value::as_u64).unwrap_or(0),
                    counters,
                }))
            }
            "error" => Ok(Frame::Error(WireError {
                code: ErrorCode::from_wire(
                    v.get("code").and_then(Value::as_str).unwrap_or("unknown"),
                ),
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                id: frame_id(&v),
            })),
            "cancelled" => Ok(Frame::Cancelled { id: need_id()? }),
            "pong" => Ok(Frame::Pong),
            "shutting_down" => Ok(Frame::ShuttingDown {
                mode: match v.get("mode").and_then(Value::as_str) {
                    Some("abort") => ShutdownMode::Abort,
                    _ => ShutdownMode::Drain,
                },
            }),
            other => Ok(Frame::Unknown {
                ty: other.to_owned(),
            }),
        }
    }
}
