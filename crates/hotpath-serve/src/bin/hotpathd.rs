//! `hotpathd` — the standalone serving daemon.
//!
//! Owns one engine, drives the epoch clock at a fixed wall-clock
//! cadence, and serves the wire protocol over a unix socket. Every
//! read a client makes is a snapshot-cell read: one atomic load, plus
//! one short lock-and-clone after each publish.
//!
//! ```text
//! hotpathd --socket /tmp/hotpathd.sock --tick-ms 100 --ticks 600
//! ```
//!
//! With `--ticks 0` the daemon runs until killed. Clients may also
//! advance the clock themselves over the wire (`--tick-ms 0` disables
//! the internal pacer entirely — driven mode).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hotpath_core::coordinator::Coordinator;
use hotpath_core::engine::EngineKind;
use hotpath_core::prelude::Config;
use hotpath_core::time::Timestamp;
use hotpath_serve::server::Hotpathd;
use hotpath_serve::wire::serve_unix;

struct Args {
    socket: PathBuf,
    tick_ms: u64,
    ticks: u64,
}

const USAGE: &str = "usage: hotpathd [--socket PATH] [--tick-ms MS] [--ticks N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { socket: PathBuf::from("/tmp/hotpathd.sock"), tick_ms: 100, ticks: 0 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--socket" => args.socket = PathBuf::from(value("--socket")?),
            "--tick-ms" => {
                args.tick_ms =
                    value("--tick-ms")?.parse().map_err(|e| format!("--tick-ms: {e}"))?;
            }
            "--ticks" => {
                args.ticks = value("--ticks")?.parse().map_err(|e| format!("--ticks: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let config = Config::paper_defaults();
    let handle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
    let server = match serve_unix(&handle, &args.socket) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("hotpathd: cannot bind {}: {e}", args.socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("hotpathd: serving on {} (tick {}ms)", args.socket.display(), args.tick_ms);

    // The pacer: one granule per tick. `--tick-ms 0` leaves the clock
    // to the clients (driven mode); `--ticks 0` runs unbounded.
    let mut t = 0u64;
    loop {
        if args.tick_ms == 0 {
            std::thread::park();
            continue;
        }
        std::thread::sleep(Duration::from_millis(args.tick_ms));
        t += 1;
        handle.advance(Timestamp(t));
        if args.ticks > 0 && t >= args.ticks {
            break;
        }
    }

    server.stop();
    let snap = handle.shutdown();
    eprintln!(
        "hotpathd: done — epoch {}, {} submitted, {} hot path(s)",
        snap.epoch, snap.comm.uplink_msgs, snap.index_size,
    );
    ExitCode::SUCCESS
}
