//! `serve`: the daemon round trip. An in-process `losac-serve` daemon on
//! loopback keeps its evaluation cache on disk in a fresh directory; one
//! persistent client connection runs a closed loop. Each request submits
//! a one-job sweep (one design point, case 4) and waits for the result,
//! with a `status` poll between requests.
//!
//! A cycle is 24 requests in seeded order: each of the 18 hot points once
//! and two fresh points per topology. An earlier daemon session wrote the
//! hot points to the cache directory, so their first touch is a disk hit
//! and later touches hit memory; a hot request never simulates. Fresh
//! points miss, simulate and write LSEC entries.

use crate::canary::{rel_diff, REL_TOL};
use crate::inputs::{rng, shuffled, Jitter, Setup, Stream, TOPOLOGIES};
use crate::measure::{median, ms, peak_rss_mb, quantile, timed, us, HostProbe, Report};
use crate::trace::{CountWindow, Layers, Tracer};
use crate::Config;
use losac_core::layout_oriented_synthesis;
use losac_core::FlowOptions;
use losac_engine::{Engine, EngineOptions, JobOutcome};
use losac_serve::wire::{self, perf_bits, Frame, OutcomeSummary};
use losac_serve::{
    Request, ServeClient, ServeOptions, Server, ShutdownMode, SubmitRequest, SweepSpec,
};
use losac_sizing::eval::{evaluate_with, EvalOptions};
use losac_sizing::{EvalCache, OtaSpecs};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The hot set is the same in every run: its points' costs spread 4×
/// (2 to 10 layout calls), and a hot set drawn from the run seed moved the
/// median request by up to 30 % between seeds. The run seed draws the
/// fresh points and the order.
const HOT_SEED: u64 = 2000;
const HOT_PER_TOPOLOGY: usize = 6;
const HOT: usize = HOT_PER_TOPOLOGY * TOPOLOGIES.len();
const FRESH_PER_TOPOLOGY: usize = 2;
/// Requests per cycle: every hot point once and the fresh points, so a
/// quarter of the requests are fresh.
const CYCLE: usize = HOT + FRESH_PER_TOPOLOGY * TOPOLOGIES.len();
/// Fresh daemons started (and stopped) before each cycle for `setup_s`.
const SETUPS_PER_CYCLE: usize = 2;
/// A set-up's client connects this long after the daemon thread starts,
/// so it always finds the accept loop already polling.
const CONNECT_AFTER: Duration = Duration::from_millis(2);
/// Every run has at least this many cycles (the traced run needs a count
/// cycle, a traced and an untraced one).
const MIN_CYCLES: u64 = 3;

/// Removes the cache directory, and its parent once empty, when the run
/// ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A daemon serving on its own thread until [`Daemon::stop`] (or drop).
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    /// Bind over `dir` and start serving; also returns the bind time.
    fn start(dir: &Path) -> io::Result<(Daemon, Duration)> {
        let (server, bind) = timed(|| Server::bind(ServeOptions::default().with_cache_dir(dir)));
        let server = server?;
        let addr = server.local_addr()?;
        let thread = Some(std::thread::spawn(move || server.run()));
        Ok((Daemon { addr, thread }, bind))
    }

    /// Drain the daemon through `client` and wait for its thread.
    fn stop(mut self, mut client: ServeClient) -> io::Result<()> {
        let thread = self.thread.take().expect("a started daemon has a thread");
        client.shutdown(ShutdownMode::Drain)?;
        // The handler of a closed connection exits at once.
        drop(client);
        thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

impl Drop for Daemon {
    /// A daemon left running by an error path: abort it, and wait for it
    /// only when it acknowledged (otherwise the join could hang).
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        if let Ok(mut client) = ServeClient::connect(self.addr) {
            if client.shutdown(ShutdownMode::Abort).is_ok() {
                drop(client);
                let _ = thread.join();
            }
        }
    }
}

/// The one-job sweep of a case-4 design point at `specs`.
fn sweep(topology: &str, specs: &OtaSpecs) -> SweepSpec {
    SweepSpec {
        topologies: vec![topology.to_owned()],
        cases: vec![4],
        gbw: vec![specs.gbw],
        cl: vec![specs.c_load],
        ..SweepSpec::default()
    }
}

/// Both performance rows of every outcome, as exact bit patterns.
type Bits = Vec<[u64; 11]>;

/// Largest relative difference between two answers' values (NaN when a
/// value is NaN in one only, infinite when their shapes differ).
fn max_rel_diff(a: &Bits, b: &Bits) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0_f64;
    for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
        let d = rel_diff(f64::from_bits(*x), f64::from_bits(*y));
        if d.is_nan() || d > worst {
            worst = d;
        }
    }
    worst
}

fn wire_bits(outcomes: &[OutcomeSummary]) -> Result<Bits, String> {
    let mut bits = Vec::new();
    for o in outcomes {
        match (&o.synthesized, &o.extracted) {
            (Some(s), Some(e)) if o.status == "finished" => {
                bits.extend([perf_bits(s), perf_bits(e)]);
            }
            _ => return Err(format!("{}: {} {:?}", o.label, o.status, o.error)),
        }
    }
    Ok(bits)
}

/// The same sweep through an in-process `Engine::run_batch`: its bits,
/// and the result line the daemon would send for it.
fn offline(id: &str, sweep: &SweepSpec) -> Result<(Bits, String), String> {
    let jobs = sweep.to_jobs().map_err(|e| e.to_string())?;
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let batch = Engine::new(EngineOptions::default()).run_batch(jobs);
    let mut bits = Vec::new();
    for (label, o) in labels.iter().zip(&batch.outcomes) {
        match o {
            JobOutcome::Finished(r) => {
                bits.extend([perf_bits(&r.synthesized), perf_bits(&r.extracted)])
            }
            other => return Err(format!("{label}: offline {}", other.status())),
        }
    }
    let outcomes = labels
        .iter()
        .zip(&batch.outcomes)
        .map(|(l, o)| wire::outcome_json(l, o))
        .collect();
    let line = wire::frame_result(id, outcomes, batch.telemetry.to_json());
    Ok((bits, line))
}

/// One request's answer: its bits and the batch wall time the daemon
/// reported.
struct Answer {
    bits: Bits,
    wall: Duration,
}

fn request(client: &mut ServeClient, submit: &SubmitRequest) -> Result<Answer, String> {
    let id = client.submit(submit).map_err(|e| format!("submit: {e}"))?;
    let (frame, _) = client.wait_result(&id).map_err(|e| format!("wait: {e}"))?;
    let Frame::Result {
        outcomes,
        telemetry,
        ..
    } = frame
    else {
        return Err(format!("{id}: expected a result frame"));
    };
    let wall_s = telemetry
        .get("wall_s")
        .and_then(|v| v.as_f64())
        .ok_or("result telemetry without wall_s")?;
    Ok(Answer {
        bits: wire_bits(&outcomes)?,
        wall: Duration::from_secs_f64(wall_s),
    })
}

/// Start a daemon over the warm directory and time bind + first pong on
/// a new connection, then stop it.
fn setup_sample(dir: &Path) -> io::Result<Duration> {
    let (daemon, bind) = Daemon::start(dir)?;
    std::thread::sleep(CONNECT_AFTER);
    let (client, connect) = timed(|| -> io::Result<ServeClient> {
        let mut c = ServeClient::connect(daemon.addr)?;
        c.ping()?;
        Ok(c)
    });
    daemon.stop(client?)?;
    Ok(bind + connect)
}

/// A request the run made, for the checks after the loop.
struct Sent {
    topology: usize,
    sweep: SweepSpec,
    bits: Bits,
}

/// The earlier daemon session: submit every hot point once over `dir`,
/// so their evaluations sit in the cache directory. Returns each point's
/// answer and, for the canaries (the first point of each topology, checked
/// against an in-process batch), the result line an in-process run makes.
fn warm(
    dir: &Path,
    hot: &[(usize, SweepSpec)],
    report: &mut Report,
) -> Result<(Vec<Bits>, Vec<String>), String> {
    let (daemon, _) = Daemon::start(dir).map_err(|e| format!("warm daemon: {e}"))?;
    let mut client = ServeClient::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut hot_bits = Vec::with_capacity(hot.len());
    let mut result_lines = Vec::new();
    for (i, (_, sweep)) in hot.iter().enumerate() {
        let submit = SubmitRequest {
            sweep: sweep.clone(),
            ..SubmitRequest::default()
        };
        let answer = request(&mut client, &submit)?;
        if i < TOPOLOGIES.len() {
            let (want, line) = offline(&format!("hot{i}"), sweep)?;
            report.op((answer.bits != want)
                .then(|| format!("hot point {i}: daemon bits differ from an in-process batch")));
            result_lines.push(line);
        }
        hot_bits.push(answer.bits);
    }
    daemon
        .stop(client)
        .map_err(|e| format!("warm daemon stop: {e}"))?;
    Ok((hot_bits, result_lines))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    match run_checked(cfg, &mut report) {
        Ok(()) => {}
        Err(e) => report.op(Some(format!("serve: {e}"))),
    }
    report
}

fn run_checked(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let mut probe = HostProbe::default();
    probe.sample();
    let setup = Setup::new();
    let dir = TempDir(
        std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench_tmp")
            .join(format!("serve-{}-{}", std::process::id(), cfg.seed)),
    );
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let io_err = |what: &str| {
        let what = what.to_owned();
        move |e: io::Error| format!("{what}: {e}")
    };

    let jitter = |seed: u64, stream: Stream| -> Vec<Jitter> {
        (0..TOPOLOGIES.len() as u64)
            .map(|t| Jitter::new(seed, stream, t))
            .collect()
    };
    let hot_jitter = jitter(HOT_SEED, Stream::Hot);
    let fresh_jitter = jitter(cfg.seed, Stream::Spec);
    let hot: Vec<(usize, SweepSpec)> = (0..HOT)
        .map(|i| {
            let t = i % TOPOLOGIES.len();
            let n = (i / TOPOLOGIES.len()) as u64;
            let specs = hot_jitter[t].specs(setup.plans[t].example_specs(), n);
            (t, sweep(TOPOLOGIES[t], &specs))
        })
        .collect();
    let (hot_bits, result_lines) = warm(&dir.0, &hot, report)?;

    // The measured daemon and its one persistent connection.
    let (daemon, _) = Daemon::start(&dir.0).map_err(io_err("daemon"))?;
    let mut client = ServeClient::connect(daemon.addr).map_err(io_err("connect"))?;
    client.ping().map_err(io_err("ping"))?;

    let mut tracer = cfg.trace.then(Tracer::new);
    let mut window = CountWindow::default();
    let mut setup_s = Vec::new();
    let mut rt_ms = Vec::new();
    let mut cycle_rate = Vec::new();
    let (mut status_us, mut ping_us, mut connect_ms, mut overhead_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut request_lines = Vec::new();
    let mut fresh: Vec<Sent> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed() < cfg.seconds {
        for _ in 0..SETUPS_PER_CYCLE {
            setup_s.push(
                setup_sample(&dir.0)
                    .map_err(io_err("set-up"))?
                    .as_secs_f64(),
            );
        }
        // Traced run: cycle 0 is the count window, then traced and
        // untraced cycles alternate for the overhead estimate.
        let counting = cfg.trace && cycle == 0;
        let traced = cfg.trace && cycle % 2 == 0;
        if let Some(t) = tracer.as_mut() {
            t.set(traced);
            let (c, d) = timed(|| -> io::Result<()> {
                let _span = losac_obs::span("bench.serve.connect");
                ServeClient::connect(daemon.addr)?.ping()
            });
            c.map_err(io_err("connect probe"))?;
            connect_ms.push(ms(d));
        }
        let cycle_start = Instant::now();
        for slot in shuffled(CYCLE, &mut rng(cfg.seed, Stream::Order, cycle)) {
            let (topology, sweep, hot_index) = match slot.checked_sub(HOT) {
                None => (hot[slot].0, hot[slot].1.clone(), Some(slot)),
                Some(f) => {
                    let t = f % TOPOLOGIES.len();
                    let n = cycle * FRESH_PER_TOPOLOGY as u64 + (f / TOPOLOGIES.len()) as u64;
                    let specs = fresh_jitter[t].specs(setup.plans[t].example_specs(), n);
                    (t, sweep(TOPOLOGIES[t], &specs), None)
                }
            };
            let submit = SubmitRequest {
                sweep,
                ..SubmitRequest::default()
            };
            if request_lines.len() < CYCLE {
                request_lines.push(Request::Submit(Box::new(submit.clone())).to_json());
            }
            let mut op = || {
                let _span = losac_obs::span("bench.serve.op");
                timed(|| request(&mut client, &submit))
            };
            let (answer, d) = if counting { window.measure(op) } else { op() };
            let problem = match (&answer, hot_index) {
                (Err(e), _) => Some(e.clone()),
                (Ok(a), Some(h)) if a.bits != hot_bits[h] => {
                    Some(format!("hot point {h}: bits differ from its first answer"))
                }
                _ => None,
            };
            report.op(problem);
            if let Ok(a) = answer {
                overhead_ms.push(ms(d.saturating_sub(a.wall)));
                if hot_index.is_none() {
                    fresh.push(Sent {
                        topology,
                        sweep: submit.sweep,
                        bits: a.bits,
                    });
                }
            }
            rt_ms.push(ms(d));
            if let Some(tr) = tracer.as_mut() {
                tr.record(ms(d), counting);
            }
            let (status, d) = timed(|| {
                let _span = losac_obs::span("bench.serve.status");
                client.status()
            });
            status.map_err(io_err("status"))?;
            status_us.push(us(d));
            if cfg.trace {
                let (pong, d) = timed(|| {
                    let _span = losac_obs::span("bench.serve.ping");
                    client.ping()
                });
                pong.map_err(io_err("ping"))?;
                ping_us.push(us(d));
            }
        }
        cycle_rate.push(CYCLE as f64 / cycle_start.elapsed().as_secs_f64());
        if let (true, Some(t)) = (counting, tracer.as_ref()) {
            window.close(t);
        }
        cycle += 1;
        probe.sample();
    }
    if let Some(t) = tracer.as_mut() {
        t.set(false);
    }
    daemon.stop(client).map_err(io_err("daemon stop"))?;

    // Spot checks among the fresh answers: the first of each topology
    // against an in-process batch, within the reference tolerance. Some
    // design points come out different in the last bits from run to run
    // (coupling capacitances are summed in `HashMap` order), so bitwise
    // differences are reported, not failed.
    let mut last_bits = 0;
    for (t, name) in TOPOLOGIES.iter().enumerate() {
        if let Some(sent) = fresh.iter().find(|s| s.topology == t) {
            let problem = match offline("fresh", &sent.sweep) {
                Ok((want, _)) => {
                    let d = max_rel_diff(&want, &sent.bits);
                    let close = d <= REL_TOL;
                    last_bits += usize::from(close && d > 0.0);
                    (!close).then(|| {
                        format!("fresh {name}: daemon differs from an in-process batch by {d:e}")
                    })
                }
                Err(e) => Some(e),
            };
            if let Some(p) = problem {
                report.failed += 1;
                report.problems.push(p);
            }
        }
    }
    if last_bits > 0 {
        report.notes.push(format!(
            "warning: {last_bits} fresh spot checks differ from an in-process batch in the \
             last bits only (nondeterministic coupling sums)"
        ));
    }
    report.notes.push(format!(
        "{cycle} cycles, {} timed requests ({} fresh)",
        rt_ms.len(),
        fresh.len()
    ));

    match tracer {
        None => {
            report.metric("setup_s", median(&setup_s), "s");
            report.metric("op_ms_p50", median(&rt_ms), "ms");
            report.metric("op_ms_p90", quantile(&rt_ms, 0.9), "ms");
            report.metric("scen_per_s", median(&cycle_rate), "1/s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(tracer) => {
            let mut layers = Layers::default();
            layers.set_counts(&window);
            layers.set_span_times(&tracer);
            layers.set("sizing.cache_hit_us", cache_hit_us(&setup, &hot, &dir.0)?);
            layers.set("serve.connect_ms", median(&connect_ms));
            layers.set("serve.ping_us", median(&ping_us));
            layers.set("serve.status_us", median(&status_us));
            layers.set("serve.parse_us", parse_us(&request_lines, &result_lines)?);
            layers.set("serve.overhead_ms", median(&overhead_ms));
            layers.set("host.ref_ms", probe.ref_ms());
            report.notes.push(tracer.profile().render_table());
            layers.emit(report);
        }
    }
    report
        .notes
        .push(format!("host.ref_ms {}", probe.describe()));
    Ok(())
}

/// Median time of `Request::parse` + `Frame::parse` on the run's own
/// request lines and the result lines of its hot points.
fn parse_us(requests: &[String], results: &[String]) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..50 {
        for (req, res) in requests.iter().zip(results.iter().cycle()) {
            let (parsed, d) = timed(|| (Request::parse(req), Frame::parse(res)));
            let (r, f) = black_box(parsed);
            r.map_err(|e| format!("request line: {e}"))?;
            f.map_err(|e| format!("result line: {e}"))?;
            samples.push(us(d));
        }
    }
    Ok(median(&samples))
}

/// Median time of an `evaluate_with` cache hit on the run's hot designs,
/// timed from outside, through a cache opened on the run's directory.
fn cache_hit_us(setup: &Setup, hot: &[(usize, SweepSpec)], dir: &Path) -> Result<f64, String> {
    let cache = std::sync::Arc::new(EvalCache::persistent(dir).map_err(|e| e.to_string())?);
    let opts = EvalOptions::default().with_cache(cache);
    let mut samples = Vec::new();
    for (t, sweep) in hot.iter().take(TOPOLOGIES.len()) {
        let specs = OtaSpecs {
            gbw: sweep.gbw[0],
            c_load: sweep.cl[0],
            ..setup.plans[*t].example_specs()
        };
        let flow = layout_oriented_synthesis(
            &setup.tech,
            &specs,
            setup.plans[*t].as_ref(),
            &FlowOptions::default(),
        )
        .map_err(|e| format!("hot design {t}: {e}"))?;
        let eval = || evaluate_with(flow.ota.as_ref(), &setup.tech, &flow.mode, &opts);
        eval().map_err(|e| e.to_string())?; // first touch: disk hit or fill
        for _ in 0..100 {
            let (perf, d) = timed(eval);
            black_box(perf.map_err(|e| e.to_string())?);
            samples.push(us(d));
        }
    }
    Ok(median(&samples))
}
