//! The `losac-serve` daemon binary.
//!
//! ```text
//! losac-serve [--addr HOST:PORT] [--workers N] [--quota N]
//!             [--max-queue N] [--cache-dir DIR]
//! ```
//!
//! On startup the bound address is announced as a `listening` frame on
//! stdout (scripts started with port 0 parse it to find the real port);
//! after that the process serves until a client sends `shutdown`.
//! Exit codes: 0 after a clean drain/abort, 2 on usage errors, 1 on
//! socket failures.

use losac_engine::EngineOptions;
use losac_serve::{wire, ServeOptions, Server};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage: losac-serve [options]
  --addr HOST:PORT   bind address (default 127.0.0.1:0; port 0 = ephemeral)
  --workers N        engine worker threads per batch (0 = all cores)
  --quota N          max in-flight submits per connection (0 = unlimited)
  --max-queue N      max queued requests across all clients
  --cache-dir DIR    persist the evaluation cache under DIR
  --help             print this help";

struct Args {
    opts: ServeOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut workers = 0;
    let mut opts = ServeOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--quota" => {
                let n = value("--quota")?
                    .parse()
                    .map_err(|e| format!("--quota: {e}"))?;
                opts = opts.with_quota(n);
            }
            "--max-queue" => {
                let n = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?;
                opts = opts.with_max_queue(n);
            }
            "--cache-dir" => opts = opts.with_cache_dir(value("--cache-dir")?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    opts = opts
        .with_addr(addr)
        .with_engine(EngineOptions::with_workers(workers));
    Ok(Args { opts })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(args.opts) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("losac-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("{}", wire::frame_listening(&addr.to_string()));
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("losac-serve: local_addr failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("losac-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
