//! The daemon under test, in its own process.
//!
//! The benchmark re-executes itself as `servebench daemon`, which binds
//! `cst_serve::Server` with the default configuration on an ephemeral
//! loopback port, prints `ready <addr>`, and serves until its stdin
//! closes. Tying the daemon's life to that pipe means it also exits if
//! the benchmark itself dies.

use cst_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Body of `servebench daemon`.
pub fn serve() -> Result<(), String> {
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("daemon cannot bind: {e}"))?;
    let addr = server.tcp_addr().ok_or("daemon bound no TCP address")?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {addr}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    // Block until the benchmark closes our stdin (or dies).
    let _ = std::io::stdin().lock().read_to_end(&mut Vec::new());
    server.shutdown();
    Ok(())
}

/// The daemon's configuration, as one JSON object.
pub fn config_json() -> String {
    let c = ServeConfig::default();
    format!(
        "{{\"workers\": {}, \"cache_capacity\": {}, \"shard_bits\": {}, \"max_frame\": {}, \"read_timeout_ms\": {}, \"cache_fp_bits\": {}}}",
        c.workers, c.cache_capacity, c.shard_bits, c.max_frame, c.read_timeout_ms, c.cache_fp_bits
    )
}

/// A running daemon process. Dropping it stops the process and waits
/// for it to end.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where the daemon listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon and wait until it is listening.
    pub fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let stdin = child.stdin.take();
        let ready = child.stdout.take().map(|out| {
            let mut line = String::new();
            BufReader::new(out).read_line(&mut line).map(|_| line)
        });
        let mut daemon = Daemon {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = match ready {
            Some(Ok(line)) => line,
            _ => return Err("daemon exited before it was ready".into()),
        };
        daemon.addr = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon sent {line:?} instead of its address"))?;
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Closing stdin asks for a clean shutdown; kill if it lingers.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
