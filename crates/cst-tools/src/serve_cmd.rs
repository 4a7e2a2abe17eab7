//! The `serve` and `serve-replay` subcommands (docs/SERVE.md).
//!
//! `serve` runs the cst-serve daemon in the foreground on a Unix socket
//! or TCP address. `serve-replay` sends one fixed, seeded frame sequence
//! to a running daemon and prints its [`ServeStats`] as JSON. Every field
//! is a pure function of the sequence and the daemon's config, so
//! scripts/ci.sh gates the output byte-for-byte against
//! `scripts/serve_golden.json`. It measures nothing: timing the daemon
//! is `servebench/`'s job.

use crate::{flag_value, typed_flag};
use cst_serve::{ServeClient, ServeConfig, Server, ServeStats};
use std::time::Instant;

/// `cst-tools serve --unix <path> | --tcp <addr>`: run the daemon in the
/// foreground until killed (or `--max-seconds` elapse — a watchdog for
/// scripted runs, 0 = forever). `--ready-file <path>` writes the bound
/// address once listening, so scripts can wait for startup.
pub fn run_serve(args: &[String]) {
    let unix = flag_value(args, "--unix");
    let tcp = flag_value(args, "--tcp");
    let config = ServeConfig {
        workers: typed_flag(args, "--workers", 4),
        cache_capacity: typed_flag(args, "--cache-cap", 256),
        shard_bits: typed_flag(args, "--shard-bits", 2),
        ..ServeConfig::default()
    };
    let max_seconds: u64 = typed_flag(args, "--max-seconds", 0);
    let server = match (unix, tcp) {
        (Some(path), None) => Server::bind_unix(&path, config),
        (None, Some(addr)) => Server::bind_tcp(&addr, config),
        _ => {
            eprintln!(
                "usage: cst-tools serve --unix <path> | --tcp <addr> \
                 [--workers <n>] [--cache-cap <n>] [--shard-bits <n>] \
                 [--ready-file <path>] [--max-seconds <s>]"
            );
            std::process::exit(2);
        }
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.addr() {
        cst_serve::ServeAddr::Tcp(a) => format!("tcp:{a}"),
        cst_serve::ServeAddr::Unix(p) => format!("unix:{}", p.display()),
    };
    println!("cst-serve listening on {addr}");
    if let Some(ready) = flag_value(args, "--ready-file") {
        if let Err(e) = std::fs::write(&ready, &addr) {
            eprintln!("cannot write ready file {ready}: {e}");
            std::process::exit(1);
        }
    }
    let t0 = Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if max_seconds > 0 && t0.elapsed().as_secs() >= max_seconds {
            println!("cst-serve: --max-seconds {max_seconds} elapsed, shutting down");
            server.shutdown();
            return;
        }
    }
}

/// The replay's fixed workload: `WORKING` seeded well-nested sets on
/// `PES` leaves at `DENSITY`, routed with `ROUTER`.
const ROUTER: &str = "csa";
const PES: usize = 1024;
const WORKING: usize = 8;
const REQUESTS: usize = 256;
const DENSITY: f64 = 0.5;
/// Soak: each request repeats a working-set member with probability
/// `REPEAT`, otherwise first moves `DELTA` of its PEs.
const REPEAT: f64 = 0.75;
const DELTA: usize = 2;
const SEED: u64 = 0;

/// `serve-replay` output: the workload constants, then the daemon's
/// stats after the replay.
#[derive(serde::Serialize)]
struct ReplayReport {
    router: &'static str,
    pes: usize,
    working: usize,
    requests: usize,
    density: f64,
    repeat: f64,
    delta: usize,
    seed: u64,
    stats: ServeStats,
}

fn die(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("serve-replay: {context}: {e}");
    std::process::exit(1);
}

/// `cst-tools serve-replay --unix <path>`: on one connection, reset the
/// daemon, route each working-set member once (all misses), then repeat
/// member 0 `REQUESTS` times (all hits). A second connection then sends
/// a `REQUESTS`-long soak over the drifting working set and closes.
/// Finally the first connection fetches the stats.
pub fn run_serve_replay(args: &[String]) {
    use rand::{Rng, SeedableRng};
    let path = match args {
        [_, flag, path] if flag == "--unix" => path,
        _ => {
            eprintln!("usage: cst-tools serve-replay --unix <path>");
            std::process::exit(2);
        }
    };
    let mut client = ServeClient::connect_unix(path).unwrap_or_else(|e| die("cannot connect", e));
    client.reset().unwrap_or_else(|e| die("reset failed", e));

    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let mut sets: Vec<cst_comm::CommSet> = (0..WORKING)
        .map(|_| cst_workloads::well_nested_with_density(&mut rng, PES, DENSITY))
        .collect();
    for set in &sets {
        client.route(ROUTER, set, None).unwrap_or_else(|e| die("route failed", e));
    }
    for _ in 0..REQUESTS {
        client.route(ROUTER, &sets[0], None).unwrap_or_else(|e| die("route failed", e));
    }

    let mut soak = ServeClient::connect_unix(path).unwrap_or_else(|e| die("cannot connect", e));
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        SEED.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut touched = Vec::new();
    for _ in 0..REQUESTS {
        let idx = rng.gen_range(0..sets.len());
        if !rng.gen_bool(REPEAT) {
            let changes = cst_workloads::random_changes(&mut rng, &sets[idx], DELTA);
            if let Err(e) = sets[idx].apply_changes(&changes, &mut touched) {
                die("soak set update failed", e);
            }
        }
        soak.route(ROUTER, &sets[idx], None).unwrap_or_else(|e| die("route failed", e));
    }
    drop(soak);

    let report = ReplayReport {
        router: ROUTER,
        pes: PES,
        working: WORKING,
        requests: REQUESTS,
        density: DENSITY,
        repeat: REPEAT,
        delta: DELTA,
        seed: SEED,
        stats: client.stats().unwrap_or_else(|e| die("stats fetch failed", e)),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(s) => println!("{s}"),
        Err(e) => die("cannot serialize report", e),
    }
}
