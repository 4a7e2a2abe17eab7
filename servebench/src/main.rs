//! servebench: end-to-end and per-layer benchmark of the cst-serve daemon.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the daemon in its own process (this binary, re-executed as
//! `servebench daemon`), drives it over loopback TCP from closed-loop
//! connections, checks every response, and prints one JSON object as its
//! last line of output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. See
//! README.md for the workloads, the metrics and what each layer predicts.

mod daemon;
mod gen;
mod load;
mod trace;

use daemon::Daemon;
use gen::{Kind, Workload, HIT_WORKING_SET};
use load::{Conn, Limit, Mode, Run, Tally};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A daemon with its connections, warmed. Fields drop in order, so the
/// connections close before the daemon stops.
struct Live {
    conns: Vec<Conn>,
    run: Run,
    daemon: Daemon,
}

/// Start a daemon, connect, wait until it answers, warm the working set.
fn set_up(w: Workload, seed: u64, warm: &mut Tally) -> Result<Live, String> {
    let daemon = Daemon::spawn()?;
    let run = Run::new(w, seed);
    let mut conns = (0..w.connections())
        .map(|id| Conn::connect(&run, daemon.addr, id))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    conns[0].stats()?;
    match w.kind {
        Kind::Hit => {
            for key in 0..HIT_WORKING_SET {
                conns[0].send_key(&run, key, Mode::Warm, warm)?;
            }
        }
        Kind::Miss | Kind::Herd => {
            warm.merge(load::phase(&run, &mut conns, Limit::Steps(w.warm_steps()), Mode::Warm).0)
        }
    }
    Ok(Live { conns, run, daemon })
}

fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Percentile `q` of the latencies in each one-second interval of a
/// `secs`-long phase, in µs; the median over the intervals. The host's
/// speed drifts within a run and sometimes stalls for whole intervals;
/// the median over intervals keeps one stalled second from moving the
/// figure, and keeps thread-placement modes from flipping it.
fn interval_percentile(t: &Tally, secs: f64, q: f64) -> f64 {
    let n = (secs.floor() as usize).max(1);
    let mut intervals = vec![Vec::new(); n];
    for (&ns, &ms) in t.lat_ns.iter().zip(&t.lat_at_ms) {
        intervals[(ms as usize / 1000).min(n - 1)].push(ns as f64 / 1000.0);
    }
    let mut per: Vec<f64> = intervals
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, q))
        .collect();
    median(&mut per)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn bench(o: &Opts) -> Result<String, String> {
    let w = o.workload;
    let mut total = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let t0 = Instant::now();
        live = Some(set_up(w, o.seed, &mut total)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Live {
        mut conns,
        run,
        daemon,
    } = live.ok_or("no set-up ran")?;

    let window = Duration::from_secs_f64(o.seconds);
    let traced = if o.trace {
        run.warm_mirror();
        let half = Instant::now() + window / 2;
        Some(load::phase(
            &run,
            &mut conns,
            Limit::Until(half),
            Mode::Traced,
        ))
    } else {
        None
    };
    let s1 = conns[0].stats()?;
    let timed_for = if o.trace { window / 2 } else { window };
    let (timed, secs) = load::phase(
        &run,
        &mut conns,
        Limit::Until(Instant::now() + timed_for),
        Mode::Timed,
    );
    let s2 = conns[0].stats()?;
    let rss_mb = daemon.peak_rss_mb()?;
    let distinct = conns
        .iter()
        .map(|c| c.stream.distinct_keys())
        .max()
        .unwrap_or(0);
    let spans: Vec<trace::Span> = conns
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.tracer.spans))
        .collect();
    drop(conns);
    drop(daemon);

    // Checks outside the timed window, then the run-level gates.
    let mut checks = Tally::default();
    run.check_against_engine(&mut checks);
    if s2.computations != distinct {
        checks.fail(format!(
            "{} computations for {distinct} distinct keys",
            s2.computations
        ));
    }
    let window_requests = s2.requests - s1.requests;
    let window_tier_hits = s2.cache.tier_hits - s1.cache.tier_hits;
    if w.kind == Kind::Hit && window_tier_hits != window_requests {
        checks.fail(format!(
            "{window_tier_hits} of {window_requests} hits came from the hit tier"
        ));
    }
    let completed = timed.lat_ns.len();
    let p50_us = interval_percentile(&timed, secs, 0.5);
    let p90_us = interval_percentile(&timed, secs, 0.9);
    let (responses, payload_bytes, rounds, max_ports, masked, dropped) = (
        timed.responses,
        timed.payload_bytes,
        timed.rounds,
        timed.max_ports,
        timed.masked,
        timed.dropped,
    );
    total.merge(timed);
    total.merge(checks);
    let mut layers = BTreeMap::new();
    let mut traced_p50_us = 0.0;
    if let Some((mut t, traced_secs)) = traced {
        traced_p50_us = interval_percentile(&t, traced_secs, 0.5);
        layers = std::mem::take(&mut t.layers);
        total.merge(t);
    }

    let mut m = Metrics(Vec::new());
    if o.trace {
        for name in [
            "client.encode",
            "client.decode",
            "server.frame",
            "server.self",
            "transport",
            "engine.fingerprint",
            "shard.tier_probe",
            "shard.locked_probe",
            "engine.route",
            "route.validate",
            "route.phase1",
            "route.rounds",
            "flight.follower",
        ] {
            match layers.get_mut(name) {
                Some(s) if !s.v.is_empty() => m.add(&format!("{name}_us"), median(&mut s.v), "us"),
                _ => {
                    total.fail(format!("traced run recorded no {name} spans"));
                    m.add(&format!("{name}_us"), 0.0, "us");
                }
            }
        }
        m.add("trace.overhead_pct", 100.0 * traced_p50_us / p50_us, "%");
        let d = |a: u64, b: u64| a - b;
        m.add(
            "cache.hit_ratio",
            ratio(
                d(s2.cache.hits, s1.cache.hits),
                d(
                    s2.cache.hits + s2.cache.misses,
                    s1.cache.hits + s1.cache.misses,
                ),
            ),
            "ratio",
        );
        m.add(
            "shard.tier_hit_share",
            ratio(window_tier_hits, window_requests),
            "ratio",
        );
        m.add(
            "shard.evictions_per_req",
            ratio(d(s2.cache.evictions, s1.cache.evictions), window_requests),
            "1/req",
        );
        m.add(
            "flight.computations_per_key",
            ratio(s2.computations, distinct),
            "ratio",
        );
        m.add(
            "flight.coalesced_share",
            ratio(d(s2.coalesced_waits, s1.coalesced_waits), window_requests),
            "ratio",
        );
        m.add("route.rounds_mean", ratio(rounds, responses), "rounds");
        m.add("route.max_port_transitions", f64::from(max_ports), "count");
        m.add("route.dropped_per_masked", ratio(dropped, masked), "count");
        m.add(
            "payload.bytes_mean",
            ratio(payload_bytes, responses),
            "bytes",
        );
        trace::write(
            &Path::new(".bench_trace").join(format!("{}.tsv", w.name)),
            &spans,
        )
        .map_err(|e| format!("cannot write trace: {e}"))?;
    } else {
        m.add("p50_us", p50_us, "us");
        m.add("p90_us", p90_us, "us");
        m.add("throughput_rps", completed as f64 / secs, "1/s");
        m.add(
            "ok_frac",
            1.0 - ratio(total.failed, total.attempted),
            "ratio",
        );
        m.add("setup_s", median(&mut setup_s), "s");
        m.add("daemon_rss_mb", rss_mb, "MB");
    }

    eprintln!(
        "servebench {} seed {}: {completed} timed requests over {secs:.3} s, {} attempted, {} failed",
        w.name, o.seed, total.attempted, total.failed
    );
    for p in &total.problems {
        eprintln!("  failure: {p}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        total.failed == 0,
        total.attempted,
        total.failed,
        m.json()
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => daemon::serve().map(|()| None),
        Some("config") => Ok(Some(daemon::config_json())),
        _ => parse(&args).and_then(|o| bench(&o)).map(Some),
    };
    match result {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
