//! End-to-end daemon tests over a loopback socket: concurrent clients
//! get results bitwise-identical to an offline `Engine::run_batch` of
//! the same sweep, a restarted daemon answers the same bits from its
//! disk cache, a hot request runs no case preparation, a round trip pays
//! no delayed-ACK wait, a new connection is served at once, a malformed
//! or over-long line degrades to a typed error frame on a connection
//! that stays usable, a line split across a read timeout still parses,
//! quotas reject over-subscription, a drain shutdown
//! finishes queued work before `run` returns, and the `losac-serve`
//! binary announces its address and exits 0 after a drain.

use losac_engine::{Engine, EngineOptions, JobOutcome};
use losac_serve::wire::{perf_bits, ErrorCode, Frame, OutcomeSummary, ShutdownMode};
use losac_serve::{ServeClient, ServeOptions, Server, SubmitRequest, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A small but real sweep: Table-1 cases 1 and 2 (no layout iteration,
/// so each job is a single synthesis pass).
fn small_sweep() -> SweepSpec {
    SweepSpec {
        cases: vec![1, 2],
        ..SweepSpec::default()
    }
}

fn start_server(opts: ServeOptions) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(opts).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// The offline reference digest: status plus the exact bit patterns of
/// both performance rows, per job.
fn offline_digest(sweep: &SweepSpec, workers: usize) -> Vec<(String, String, Vec<[u64; 11]>)> {
    let jobs = sweep.to_jobs().expect("valid sweep");
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let engine = Engine::new(EngineOptions::with_workers(workers));
    let batch = engine.run_batch(jobs);
    labels
        .into_iter()
        .zip(&batch.outcomes)
        .map(|(label, outcome)| {
            let rows = match outcome {
                JobOutcome::Finished(r) => vec![perf_bits(&r.synthesized), perf_bits(&r.extracted)],
                other => panic!("offline reference failed: {label}: {}", other.status()),
            };
            (label, outcome.status().to_owned(), rows)
        })
        .collect()
}

fn wire_digest(outcomes: &[OutcomeSummary]) -> Vec<(String, String, Vec<[u64; 11]>)> {
    outcomes
        .iter()
        .map(|o| {
            let mut rows = Vec::new();
            if let Some(p) = &o.synthesized {
                rows.push(perf_bits(p));
            }
            if let Some(p) = &o.extracted {
                rows.push(perf_bits(p));
            }
            (o.label.clone(), o.status.clone(), rows)
        })
        .collect()
}

#[test]
fn concurrent_clients_get_bitwise_identical_results() {
    let reference = offline_digest(&small_sweep(), 2);
    let (addr, handle) =
        start_server(ServeOptions::default().with_engine(EngineOptions::with_workers(2)));
    let digests: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let id = client
                        .submit(&SubmitRequest {
                            id: Some(format!("client{i}")),
                            subscribe: i == 0,
                            sweep: small_sweep(),
                            ..SubmitRequest::default()
                        })
                        .expect("submit accepted");
                    assert_eq!(id, format!("client{i}"));
                    let (result, events) = client.wait_result(&id).expect("result");
                    let Frame::Result { outcomes, .. } = result else {
                        panic!("expected result frame");
                    };
                    // The subscribed client must have seen its batch's
                    // engine events; the other must not (it never
                    // subscribed).
                    if i == 0 {
                        assert!(!events.is_empty(), "subscribed client saw no engine events");
                    } else {
                        assert!(events.is_empty(), "unsubscribed client saw events");
                    }
                    wire_digest(&outcomes)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for digest in &digests {
        assert_eq!(
            digest, &reference,
            "daemon result drifted from offline run_batch"
        );
    }
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    handle.join().unwrap().expect("clean drain exit");
}

/// Submit `sweep` on a fresh connection and return its result digest.
fn submit_digest(addr: SocketAddr, sweep: SweepSpec) -> Vec<(String, String, Vec<[u64; 11]>)> {
    let mut client = ServeClient::connect(addr).expect("connect");
    let id = client
        .submit(&SubmitRequest {
            sweep,
            ..SubmitRequest::default()
        })
        .expect("submit accepted");
    let (result, _) = client.wait_result(&id).expect("result");
    let Frame::Result { outcomes, .. } = result else {
        panic!("expected result frame");
    };
    wire_digest(&outcomes)
}

#[test]
fn restarted_daemon_answers_from_its_disk_cache() {
    let dir = std::env::temp_dir().join(format!("losac-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || ServeOptions::default().with_cache_dir(&dir);
    let (addr, handle) = start_server(opts());
    let first = submit_digest(addr, small_sweep());
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    handle.join().unwrap().expect("clean drain exit");

    // A second daemon over the same directory starts with an empty memory
    // cache, so both rows of every job come from disk. The counters are
    // process-wide and other tests may add to them: assert growth.
    let (addr, handle) = start_server(opts());
    let mut client = ServeClient::connect(addr).expect("connect");
    let disk_hits = |c: &mut ServeClient| {
        c.status()
            .expect("status")
            .counter("sizing.eval.cache_disk_hit")
    };
    let before = disk_hits(&mut client);
    let second = submit_digest(addr, small_sweep());
    let after = disk_hits(&mut client);
    assert_eq!(second, first, "a warm restart must answer the same bits");
    assert!(
        after >= before + 2 * first.len() as u64,
        "disk hits went from {before} to {after} over {} jobs",
        first.len()
    );
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    handle.join().unwrap().expect("clean drain exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hot_request_runs_no_preparation() {
    // The daemon keeps a design point's preparation from its second
    // request on, so the third request prepares nothing; every answer
    // keeps the offline bits.
    let sweep = SweepSpec {
        cases: vec![1],
        ..SweepSpec::default()
    };
    let reference = offline_digest(&sweep, 1);
    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut prepared = Vec::new();
    for _ in 0..3 {
        let id = client
            .submit(&SubmitRequest {
                sweep: sweep.clone(),
                ..SubmitRequest::default()
            })
            .expect("submit accepted");
        let (result, _) = client.wait_result(&id).expect("result");
        let Frame::Result {
            outcomes,
            telemetry,
            ..
        } = result
        else {
            panic!("expected result frame");
        };
        assert_eq!(
            wire_digest(&outcomes),
            reference,
            "request {}",
            prepared.len()
        );
        prepared.push(telemetry.get("prepared").and_then(|v| v.as_u64()));
    }
    assert_eq!(prepared, [Some(1), Some(1), Some(0)]);
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    handle.join().unwrap().expect("clean drain exit");
}

#[test]
fn a_round_trip_waits_for_no_delayed_ack() {
    // A job whose deadline has passed at accept ends at once, so the round
    // trip is all socket: `accepted`, then `result`, with no client write
    // between them. With Nagle's algorithm on, the result waits for the
    // client's delayed ACK of `accepted`, about 40 ms.
    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut trips: Vec<Duration> = (0..10)
        .map(|_| {
            let start = Instant::now();
            let id = client
                .submit(&SubmitRequest {
                    deadline_ms: Some(0),
                    sweep: small_sweep(),
                    ..SubmitRequest::default()
                })
                .expect("submit accepted");
            client.wait_result(&id).expect("result");
            start.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?}: {trips:?}"
    );
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    handle.join().unwrap().expect("clean drain exit");
}

#[test]
fn a_new_connection_is_served_at_once() {
    // Each connection is fresh, so its first pong includes the daemon's
    // `accept`, which must take the connection as soon as it arrives.
    let (addr, handle) = start_server(ServeOptions::default());
    let mut waits: Vec<Duration> = (0..10)
        .map(|_| {
            let start = Instant::now();
            let mut client = ServeClient::connect(addr).expect("connect");
            client.ping().expect("pong");
            start.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-pong {median:?}: {waits:?}"
    );
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    drop(client);
    handle.join().unwrap().expect("clean drain exit");
}

#[test]
fn malformed_line_gets_typed_error_and_connection_survives() {
    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    client.send_raw("this is { not json").expect("send garbage");
    let frame = client.next_frame().expect("server must answer, not drop");
    let Frame::Error(err) = frame else {
        panic!("expected error frame, got {frame:?}");
    };
    assert_eq!(err.code, ErrorCode::Malformed);
    // Same connection still works.
    client.ping().expect("ping after malformed line");
    // Unknown request type → unsupported, still no disconnect.
    client
        .send_raw("{\"v\":1,\"type\":\"teleport\"}")
        .expect("send unknown type");
    let Frame::Error(err) = client.next_frame().expect("answer") else {
        panic!("expected error frame");
    };
    assert_eq!(err.code, ErrorCode::Unsupported);
    // Bad sweeps are rejected synchronously with the request id.
    let rejected = client.submit(&SubmitRequest {
        id: Some("bad".to_owned()),
        sweep: SweepSpec {
            tech: "cmos9000".to_owned(),
            ..SweepSpec::default()
        },
        ..SubmitRequest::default()
    });
    let err = rejected.expect_err("unknown tech must be rejected");
    assert!(err.to_string().contains("bad_sweep"), "{err}");
    client.ping().expect("ping after rejected submit");
    client.shutdown(ShutdownMode::Drain).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn an_over_long_line_is_refused_and_skipped() {
    // A line over the 1 MiB cap gets a typed error, its rest is
    // discarded up to the newline, and the connection stays usable.
    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    let long = format!(
        "{{\"v\":1,\"type\":\"ping\",\"pad\":\"{}\"}}",
        "x".repeat(2 << 20)
    );
    client.send_raw(&long).expect("send a 2 MiB line");
    let frame = client.next_frame().expect("server must answer, not drop");
    let Frame::Error(err) = frame else {
        panic!("expected error frame, got {frame:?}");
    };
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(err.message.contains("longer than"), "{}", err.message);
    client.ping().expect("ping after the over-long line");
    client.shutdown(ShutdownMode::Drain).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn a_partial_line_survives_a_read_timeout() {
    // The handler's reads time out every 200 ms to check for shutdown;
    // a line split across such a timeout must still parse whole.
    let (addr, handle) = start_server(ServeOptions::default());
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"v\":1,\"ty").expect("first half");
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(b"pe\":\"ping\"}\n").expect("second half");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("reply line");
    let frame = Frame::parse(&reply).expect("a frame");
    assert!(matches!(frame, Frame::Pong), "{frame:?}");
    drop(stream);
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown(ShutdownMode::Drain).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn quota_rejects_oversubscription_and_cancel_dequeues() {
    let (addr, handle) = start_server(ServeOptions::default().with_quota(2));
    let mut client = ServeClient::connect(addr).expect("connect");
    // Two slow-ish submits fill the quota (the first may start running;
    // quota counts queued + running).
    let first = client
        .submit(&SubmitRequest {
            id: Some("a".to_owned()),
            sweep: small_sweep(),
            ..SubmitRequest::default()
        })
        .expect("first submit");
    let second = client
        .submit(&SubmitRequest {
            id: Some("b".to_owned()),
            priority: -1,
            sweep: small_sweep(),
            ..SubmitRequest::default()
        })
        .expect("second submit");
    let err = client
        .submit(&SubmitRequest {
            id: Some("c".to_owned()),
            sweep: small_sweep(),
            ..SubmitRequest::default()
        })
        .expect_err("third submit must exceed quota of 2");
    assert!(err.to_string().contains("quota_exceeded"), "{err}");
    // Cancelling the queued low-priority request frees a slot...
    client.cancel(&second).expect("cancel queued request");
    // ...so a new submit is accepted again.
    let third = client
        .submit(&SubmitRequest {
            id: Some("c".to_owned()),
            sweep: small_sweep(),
            ..SubmitRequest::default()
        })
        .expect("slot freed by cancel");
    for id in [first, third] {
        let (frame, _) = client.wait_result(&id).expect("result");
        let Frame::Result { outcomes, .. } = frame else {
            panic!("expected result frame");
        };
        assert!(outcomes.iter().all(|o| o.status == "finished"));
    }
    // Cancelling an unknown id is a typed error, not a hang.
    let err = client.cancel("ghost").expect_err("unknown id");
    assert!(err.to_string().contains("unknown_id"), "{err}");
    client.shutdown(ShutdownMode::Drain).expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn drain_finishes_queued_work_then_exits() {
    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    let id = client
        .submit(&SubmitRequest {
            sweep: small_sweep(),
            ..SubmitRequest::default()
        })
        .expect("submit");
    // Drain immediately: the queued request must still complete.
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    let (frame, _) = client.wait_result(&id).expect("queued work finishes");
    let Frame::Result { outcomes, .. } = frame else {
        panic!("expected result frame");
    };
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|o| o.status == "finished"));
    handle.join().unwrap().expect("drain exits cleanly");
    // Submits during/after drain are refused with the draining code —
    // checked via a fresh server since this one is gone.
    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    let err = client
        .submit(&SubmitRequest {
            sweep: small_sweep(),
            ..SubmitRequest::default()
        })
        .expect_err("draining server must refuse submits");
    assert!(
        err.to_string().contains("draining") || err.kind() == std::io::ErrorKind::UnexpectedEof,
        "{err}"
    );
    drop(client);
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn abort_cancels_in_flight_work() {
    let (addr, handle) = start_server(ServeOptions::default());
    let mut submitter = ServeClient::connect(addr).expect("connect");
    // A deliberately large sweep so the batch is still running when the
    // abort lands.
    let id = submitter
        .submit(&SubmitRequest {
            sweep: SweepSpec {
                cases: vec![3, 4],
                gbw: vec![1.0e6, 2.0e6, 3.0e6, 4.0e6],
                ..SweepSpec::default()
            },
            ..SubmitRequest::default()
        })
        .expect("submit");
    std::thread::sleep(Duration::from_millis(50));
    let mut op = ServeClient::connect(addr).expect("connect op channel");
    op.shutdown(ShutdownMode::Abort).expect("abort ack");
    let (frame, _) = submitter.wait_result(&id).expect("aborted batch reports");
    let Frame::Result { outcomes, .. } = frame else {
        panic!("expected result frame");
    };
    // Every job reports a real outcome; late jobs come back cancelled.
    assert_eq!(outcomes.len(), 8);
    assert!(
        outcomes.iter().any(|o| o.status == "cancelled"),
        "abort left no cancelled outcomes: {:?}",
        outcomes.iter().map(|o| &o.status).collect::<Vec<_>>()
    );
    handle.join().unwrap().expect("abort exits cleanly");
}

/// Kills the daemon process on every path that does not reap it.
struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn the_daemon_binary_announces_its_address_and_drains_to_exit_0() {
    let mut daemon = Daemon(Some(
        Command::new(env!("CARGO_BIN_EXE_losac-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .env("LOSAC_LOG", "off")
            .stdout(Stdio::piped())
            .spawn()
            .expect("start losac-serve"),
    ));
    let child = daemon.0.as_mut().expect("running");
    // Read the `listening` frame on a helper thread, so a daemon that
    // never prints fails the test instead of hanging it.
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a listening frame within 30 s");
    reader.join().expect("stdout reader");
    let Ok(Frame::Listening { addr }) = Frame::parse(&line) else {
        panic!("expected a listening frame, got {line:?}");
    };
    let mut client = ServeClient::connect(addr.as_str()).expect("connect");
    client.ping().expect("pong");
    client.shutdown(ShutdownMode::Drain).expect("shutdown ack");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "the daemon did not exit after a drain"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    daemon.0 = None;
    assert!(status.success(), "losac-serve exited {status}");
}
