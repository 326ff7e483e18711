//! Wire-protocol conformance: every frame round-trips through its JSON
//! form, malformed input maps to *typed* error codes (never a dropped
//! parse or a panic, also under seeded mutations of valid lines, and
//! never an oversized sweep expanded), unknown fields and unknown frame
//! types are tolerated, and performance rows survive the wire
//! bit-for-bit.

use losac_engine::{Engine, EngineOptions, JobOutcome};
use losac_layout::slicing::ShapeConstraint;
use losac_serve::json::Value;
use losac_serve::wire::{
    self, frame_accepted, frame_cancelled, frame_error, frame_event, frame_listening, frame_pong,
    frame_result, frame_shutting_down, frame_status, outcome_json, perf_bits, perf_from_value,
    perf_json_full, ErrorCode, Frame, Request, ShutdownMode, StatusInfo, SubmitRequest, SweepSpec,
    WireError,
};
use losac_sizing::Performance;
use losac_tech::rng::Xorshift128Plus;
use losac_tech::Corner;

fn full_spec() -> SweepSpec {
    SweepSpec {
        tech: "cmos035".to_owned(),
        topologies: vec!["folded_cascode".to_owned()],
        cases: vec![1, 4],
        shapes: vec![
            ShapeConstraint::MinArea,
            ShapeConstraint::Aspect(1.5),
            ShapeConstraint::MaxHeight(120_000),
            ShapeConstraint::MaxWidth(90_000),
        ],
        gbw: vec![1.0e6, 5.0e6],
        pm: vec![60.0],
        cl: vec![10e-12],
        vdd: vec![3.3],
        corners: vec![Corner::Typical, Corner::Slow, Corner::Fast],
        temps_c: vec![-40.0, 27.0, 125.0],
        supply_scales: vec![0.9, 1.0, 1.1],
        monte_carlo: Some((8, 42)),
        tolerance: Some(0.02),
        max_layout_calls: Some(17),
        budget_ms: Some(30_000),
    }
}

/// One request of every kind, the submit with every sweep field set.
fn every_request() -> [Request; 7] {
    [
        Request::Submit(Box::new(SubmitRequest {
            id: Some("alpha".to_owned()),
            priority: -3,
            deadline_ms: Some(12_000),
            subscribe: true,
            sweep: full_spec(),
        })),
        Request::Submit(Box::default()),
        Request::Status,
        Request::Cancel {
            id: "alpha".to_owned(),
        },
        Request::Shutdown {
            mode: ShutdownMode::Drain,
        },
        Request::Shutdown {
            mode: ShutdownMode::Abort,
        },
        Request::Ping,
    ]
}

#[test]
fn every_request_round_trips() {
    for req in every_request() {
        let line = req.to_json();
        let back = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back, req, "round trip of {line}");
    }
}

#[test]
fn every_server_frame_round_trips() {
    let status = StatusInfo {
        state: "draining".to_owned(),
        queued: 3,
        running: 1,
        jobs_done: 42,
        workers: 8,
        cache_entries: 1234,
        counters: vec![
            ("sizing.eval.cache_hit".to_owned(), 17),
            ("sizing.eval.cache_miss".to_owned(), 4),
        ],
    };
    let err = WireError::new(ErrorCode::QuotaExceeded, "too many").with_id("beta");
    let outcome = outcome_json("case4/min_area", &JobOutcome::Panicked("boom".to_owned()));
    let lines = [
        frame_listening("127.0.0.1:4444"),
        frame_accepted("alpha", 8, 2),
        frame_result("alpha", vec![outcome], "{\"wall_s\":1.5}".to_owned()),
        frame_cancelled("alpha"),
        frame_status(&status),
        frame_error(&err),
        frame_pong(),
        frame_shutting_down(ShutdownMode::Abort),
    ];
    let expect = [
        Frame::Listening {
            addr: "127.0.0.1:4444".to_owned(),
        },
        Frame::Accepted {
            id: "alpha".to_owned(),
            jobs: 8,
            queue_depth: 2,
        },
        Frame::Result {
            id: "alpha".to_owned(),
            outcomes: vec![wire::OutcomeSummary {
                label: "case4/min_area".to_owned(),
                status: "panicked".to_owned(),
                error: Some("boom".to_owned()),
                layout_calls: None,
                synthesized: None,
                extracted: None,
            }],
            telemetry: Value::parse("{\"wall_s\":1.5}").unwrap(),
        },
        Frame::Cancelled {
            id: "alpha".to_owned(),
        },
        Frame::Status(status.clone()),
        Frame::Error(err.clone()),
        Frame::Pong,
        Frame::ShuttingDown {
            mode: ShutdownMode::Abort,
        },
    ];
    for (line, want) in lines.iter().zip(expect) {
        let got = Frame::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(got, want, "round trip of {line}");
    }
}

#[test]
fn event_frames_carry_record_fields() {
    let record = losac_obs::Record {
        t_us: 1234,
        thread: 1,
        kind: losac_obs::RecordKind::Event,
        name: "engine.job.done",
        path: String::new(),
        fields: vec![
            losac_obs::f("job", 3u64),
            losac_obs::f("status", "finished"),
            losac_obs::f("wall_s", 0.25f64),
        ],
    };
    let line = frame_event("alpha", &record);
    let Frame::Event { id, name, fields } = Frame::parse(&line).unwrap() else {
        panic!("not an event frame: {line}");
    };
    assert_eq!(id, "alpha");
    assert_eq!(name, "engine.job.done");
    assert_eq!(fields.get("job").and_then(Value::as_u64), Some(3));
    assert_eq!(
        fields.get("status").and_then(Value::as_str),
        Some("finished")
    );
    assert_eq!(fields.get("wall_s").and_then(Value::as_f64), Some(0.25));
}

#[test]
fn outcome_statuses_serialise() {
    for (outcome, status, error) in [
        (JobOutcome::TimedOut, "timed_out", None),
        (JobOutcome::Cancelled, "cancelled", None),
        (
            JobOutcome::Panicked("kaboom".to_owned()),
            "panicked",
            Some("kaboom"),
        ),
    ] {
        let line = frame_result("r", vec![outcome_json("lbl", &outcome)], "null".to_owned());
        let Frame::Result { outcomes, .. } = Frame::parse(&line).unwrap() else {
            panic!("not a result frame: {line}");
        };
        assert_eq!(outcomes[0].status, status);
        assert_eq!(outcomes[0].error.as_deref(), error);
        assert_eq!(outcomes[0].label, "lbl");
    }
}

#[test]
fn malformed_input_yields_typed_errors() {
    let cases: [(&str, ErrorCode); 10] = [
        ("not json at all", ErrorCode::Malformed),
        ("[1,2,3]", ErrorCode::Malformed),
        ("{\"type\":42}", ErrorCode::Malformed),
        ("{}", ErrorCode::Malformed),
        ("{\"v\":0,\"type\":\"ping\"}", ErrorCode::Malformed),
        ("{\"v\":\"one\",\"type\":\"ping\"}", ErrorCode::Malformed),
        ("{\"type\":\"cancel\"}", ErrorCode::Malformed),
        ("{\"type\":\"warp\"}", ErrorCode::Unsupported),
        (
            "{\"type\":\"shutdown\",\"mode\":\"sideways\"}",
            ErrorCode::Malformed,
        ),
        (
            "{\"type\":\"submit\",\"sweep\":{\"cases\":[9]}}",
            ErrorCode::Malformed, // placeholder; bad case number surfaces at to_jobs
        ),
    ];
    for (line, want) in &cases[..9] {
        let err = Request::parse(line).expect_err(line);
        assert_eq!(err.code, *want, "{line} → {err}");
    }
    // Structural sweep errors parse fine but fail expansion with a
    // BadSweep, carrying enough detail to act on. That includes sweeps
    // too large to expand: 2^32 - 1 Monte-Carlo draws, or two 300-point
    // axes. The bound is checked before anything is allocated.
    let huge_mc = "{\"type\":\"submit\",\"sweep\":{\"mc_samples\":4294967295}}";
    for line in [cases[9].0, huge_mc] {
        let Request::Submit(s) = Request::parse(line).unwrap() else {
            panic!("submit should parse structurally");
        };
        assert_eq!(s.sweep.to_jobs().unwrap_err().code, ErrorCode::BadSweep);
    }
    let axis: Vec<f64> = (0..300).map(|i| 1e6 + f64::from(i)).collect();
    for bad in [
        SweepSpec {
            tech: "cmos9000".to_owned(),
            ..SweepSpec::default()
        },
        SweepSpec {
            topologies: vec!["ring_oscillator".to_owned()],
            ..SweepSpec::default()
        },
        SweepSpec {
            gbw: axis.clone(),
            cl: axis,
            ..SweepSpec::default()
        },
    ] {
        assert_eq!(bad.to_jobs().unwrap_err().code, ErrorCode::BadSweep);
    }
    // A large sweep inside the bound still expands.
    assert_eq!(full_spec().to_jobs().expect("full spec").len(), 3456);
    // Mistyped sweep fields are BadSweep at parse time, with the request
    // id attached for correlation.
    let err = Request::parse("{\"type\":\"submit\",\"id\":\"x\",\"sweep\":{\"gbw\":\"fast\"}}")
        .expect_err("mistyped sweep axis");
    assert_eq!(err.code, ErrorCode::BadSweep);
    assert_eq!(err.id.as_deref(), Some("x"));
    // A sweep nested 100 000 deep is Malformed, refused by the parser's
    // depth limit before it can overflow the stack.
    let deep = format!(
        "{{\"type\":\"submit\",\"sweep\":{}{}}}",
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    let err = Request::parse(&deep).expect_err("nested 100 000 deep");
    assert_eq!(err.code, ErrorCode::Malformed);

    // Seeded mutations of every valid request line: each truncation, and
    // byte flips and inserted bytes at random positions. Parsing returns
    // a request or a typed error, and never panics.
    let mut rng = Xorshift128Plus::seed_from_u64(0x5EED);
    let parse = |bytes: &[u8]| {
        let line = String::from_utf8_lossy(bytes);
        if let Err(err) = Request::parse(&line) {
            assert!(
                matches!(
                    err.code,
                    ErrorCode::Malformed | ErrorCode::Unsupported | ErrorCode::BadSweep
                ),
                "{line} → {err}"
            );
        }
    };
    for req in every_request() {
        let line = req.to_json().into_bytes();
        for cut in 0..line.len() {
            parse(&line[..cut]);
        }
        for _ in 0..64 {
            let at = rng.next_u64() as usize % line.len();
            let byte = rng.next_u64() as u8;
            let mut flipped = line.clone();
            flipped[at] ^= byte.max(1);
            parse(&flipped);
            let mut inserted = line.clone();
            inserted.insert(at, byte);
            parse(&inserted);
        }
    }
}

#[test]
fn hostile_sweep_fields_fail_typed_and_never_finish() {
    // Non-finite, negative, zero and huge sweep fields fail expansion
    // with BadSweep: the daemon answers the submit, and no job reaches
    // the engine, let alone a design point's preparation.
    let on = |case: u8| SweepSpec {
        cases: vec![case],
        ..SweepSpec::default()
    };
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let mut specs = Vec::new();
    let mut push = |case: u8, set: &dyn Fn(&mut SweepSpec)| {
        let mut spec = on(case);
        set(&mut spec);
        specs.push(spec);
    };
    for v in [nan, inf, 0.0, -1.0] {
        push(1, &|s| s.gbw = vec![v]);
        push(1, &|s| s.pm = vec![v]);
        push(1, &|s| s.cl = vec![v]);
        push(1, &|s| s.vdd = vec![v]);
    }
    for t in [nan, inf, -inf, -300.0] {
        push(1, &|s| s.temps_c = vec![t]);
    }
    for k in [nan, inf, 0.0, -1.0, 1e300] {
        push(1, &|s| s.supply_scales = vec![k]);
    }
    for t in [nan, inf, -1.0] {
        push(4, &|s| s.tolerance = Some(t));
    }
    push(4, &|s| s.max_layout_calls = Some(0));
    for shape in [
        ShapeConstraint::Aspect(nan),
        ShapeConstraint::Aspect(0.0),
        ShapeConstraint::Aspect(-1.0),
        ShapeConstraint::Aspect(inf),
        ShapeConstraint::MaxHeight(-5),
        ShapeConstraint::MaxWidth(0),
    ] {
        push(1, &|s| s.shapes = vec![shape]);
    }
    let engine = Engine::new(EngineOptions::with_workers(1));
    // The specs unmodified finish, so every failure below is the hostile
    // field's.
    for case in [1, 4] {
        let outcomes = engine.run_batch(on(case).to_jobs().unwrap()).outcomes;
        assert!(outcomes[0].is_finished(), "case {case}: {:?}", outcomes[0]);
    }
    for spec in specs {
        match spec.to_jobs() {
            Err(err) => assert_eq!(err.code, ErrorCode::BadSweep, "{spec:?}: {err}"),
            Ok(jobs) => panic!("{spec:?} expanded to {} jobs", jobs.len()),
        }
    }
}

#[test]
fn unknown_fields_and_frame_types_are_tolerated() {
    // Unknown request fields are ignored.
    let req = Request::parse(
        "{\"v\":3,\"type\":\"ping\",\"shiny_new_field\":{\"deep\":[1,2]},\"another\":true}",
    )
    .expect("additive fields must parse");
    assert_eq!(req, Request::Ping);
    // Unknown submit fields are ignored too.
    let req =
        Request::parse("{\"type\":\"submit\",\"retries\":9,\"sweep\":{\"cases\":[1],\"hint\":0}}")
            .expect("additive submit fields must parse");
    let Request::Submit(s) = req else {
        panic!("expected submit")
    };
    assert_eq!(s.sweep.cases, vec![1]);
    // Unknown *server* frame types parse as Frame::Unknown so clients
    // skip rather than die.
    let frame = Frame::parse("{\"v\":2,\"type\":\"hologram\",\"payload\":[]}").unwrap();
    assert_eq!(
        frame,
        Frame::Unknown {
            ty: "hologram".to_owned()
        }
    );
    // Unknown error codes degrade to ErrorCode::Unknown, keeping message
    // and id.
    let Frame::Error(err) =
        Frame::parse("{\"type\":\"error\",\"code\":\"teapot\",\"message\":\"m\",\"id\":\"i\"}")
            .unwrap()
    else {
        panic!("expected error frame");
    };
    assert_eq!(err.code, ErrorCode::Unknown);
    assert_eq!(err.id.as_deref(), Some("i"));
}

#[test]
fn sweep_expansion_matches_offline_builder() {
    let spec = SweepSpec {
        cases: vec![1, 2, 4],
        shapes: vec![ShapeConstraint::MinArea, ShapeConstraint::Aspect(2.0)],
        gbw: vec![1.0e6, 2.0e6],
        ..SweepSpec::default()
    };
    let jobs = spec.to_jobs().expect("valid sweep");
    assert_eq!(jobs.len(), 3 * 2 * 2);
    // Round-tripping the spec through the wire must preserve the
    // expansion exactly (same labels, same order).
    let line = Request::Submit(Box::new(SubmitRequest {
        sweep: spec.clone(),
        ..SubmitRequest::default()
    }))
    .to_json();
    let Request::Submit(back) = Request::parse(&line).unwrap() else {
        panic!("expected submit")
    };
    assert_eq!(back.sweep, spec);
    let labels: Vec<_> = jobs.iter().map(|j| j.label.clone()).collect();
    let relabels: Vec<_> = back
        .sweep
        .to_jobs()
        .unwrap()
        .iter()
        .map(|j| j.label.clone())
        .collect();
    assert_eq!(labels, relabels);
    // Overrides land on every job.
    let jobs = SweepSpec {
        tolerance: Some(0.5),
        max_layout_calls: Some(3),
        budget_ms: Some(1000),
        ..SweepSpec::default()
    }
    .to_jobs()
    .unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].options.tolerance, 0.5);
    assert_eq!(jobs[0].options.max_layout_calls, 3);
    assert_eq!(jobs[0].budget, Some(std::time::Duration::from_secs(1)));
}

#[test]
fn scenario_axes_survive_the_wire_and_expand_identically() {
    use losac_engine::SweepBuilder;
    use losac_sizing::OtaSpecs;
    use losac_tech::Technology;

    let spec = SweepSpec {
        cases: vec![1],
        corners: vec![Corner::Typical, Corner::Slow],
        temps_c: vec![27.0, 125.0],
        supply_scales: vec![0.9, 1.0],
        monte_carlo: Some((2, 7)),
        ..SweepSpec::default()
    };
    // Wire round trip preserves the scenario axes verbatim.
    let line = Request::Submit(Box::new(SubmitRequest {
        sweep: spec.clone(),
        ..SubmitRequest::default()
    }))
    .to_json();
    let Request::Submit(back) = Request::parse(&line).unwrap() else {
        panic!("expected submit")
    };
    assert_eq!(back.sweep, spec);

    // The expansion is the one the offline builder produces: same
    // labels, same design points, same per-job scenarios, same order.
    let offline = SweepBuilder::new(
        std::sync::Arc::new(Technology::cmos06()),
        OtaSpecs::paper_example(),
    )
    .over_cases([losac_core::prelude::Case::NoParasitics])
    .corners([Corner::Typical, Corner::Slow])
    .temperatures([27.0, 125.0])
    .supplies([0.9, 1.0])
    .monte_carlo(2, 7)
    .build();
    let jobs = back.sweep.to_jobs().expect("valid sweep");
    assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
    assert_eq!(jobs.len(), offline.len());
    for (a, b) in jobs.iter().zip(&offline) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.design_point, b.design_point);
        assert_eq!(
            a.options.eval.scenario.label(),
            b.options.eval.scenario.label()
        );
    }

    // mc_seed defaults to 0 when only the sample count travels.
    let Request::Submit(s) =
        Request::parse("{\"type\":\"submit\",\"sweep\":{\"mc_samples\":4}}").unwrap()
    else {
        panic!("expected submit")
    };
    assert_eq!(s.sweep.monte_carlo, Some((4, 0)));

    // Typed errors: unknown corner names and an orphaned seed.
    for bad in [
        "{\"type\":\"submit\",\"sweep\":{\"corners\":[\"sf\"]}}",
        "{\"type\":\"submit\",\"sweep\":{\"corners\":[1]}}",
        "{\"type\":\"submit\",\"sweep\":{\"mc_seed\":9}}",
        "{\"type\":\"submit\",\"sweep\":{\"mc_samples\":1e12}}",
        "{\"type\":\"submit\",\"sweep\":{\"temps_c\":27}}",
    ] {
        let err = Request::parse(bad).expect_err(bad);
        assert_eq!(err.code, ErrorCode::BadSweep, "{bad} → {err}");
    }
}

#[test]
fn performance_rows_survive_the_wire_bit_for_bit() {
    // Awkward values: subnormal, negative zero, huge, tiny, many digits.
    let perf = Performance {
        dc_gain_db: 93.217_430_000_1,
        gbw: 1.234_567_890_123_456_7e6,
        phase_margin: 63.999_999_999_999_99,
        slew_rate: -0.0,
        cmrr_db: f64::MIN_POSITIVE,
        offset: 5.0e-324, // smallest subnormal
        output_resistance: 1.797_693_134_862_315_7e308,
        input_noise_rms: 2.220_446_049_250_313e-16,
        thermal_noise_density: 1.0 / 3.0,
        flicker_noise_density: 0.1 + 0.2, // 0.30000000000000004
        power: 1e-3,
    };
    let json = perf_json_full(&perf);
    let back = perf_from_value(&Value::parse(&json).unwrap()).expect("full row");
    assert_eq!(
        perf_bits(&back),
        perf_bits(&perf),
        "bitwise drift in {json}"
    );
    // Non-finite values render as null and come back NaN (by design:
    // JSON has no NaN/Inf).
    let perf = Performance {
        dc_gain_db: f64::NAN,
        gbw: f64::INFINITY,
        ..perf
    };
    let back = perf_from_value(&Value::parse(&perf_json_full(&perf)).unwrap()).unwrap();
    assert!(back.dc_gain_db.is_nan());
    assert!(back.gbw.is_nan());
}
