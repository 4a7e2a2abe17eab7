//! Spans of the traced run, held in memory and written when it ends.
//!
//! Every span is recorded by the benchmark around a call into one
//! crate's public function; nothing inside the daemon is instrumented.
//! The server-side spans (`server.frame` and the engine, shard and
//! route spans) are replayed in-process right after the socket round
//! trip, so their `parent` is the span they logically belong to, not
//! one that contains them in time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u64,
    /// Id unique within the request (0 is the request's root span).
    pub id: u32,
    /// Id of the parent span within the request (root: its own id).
    pub parent: u32,
    /// Layer name, as in `BENCHMARK.json`'s per-layer metrics.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1000.0
    }
}

/// Spans kept per connection. Later spans are still timed and feed the
/// per-layer metrics, but are not written out.
const MAX_SPANS: usize = 1 << 16;

/// Span recorder of one connection thread.
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span and return it.
    pub fn record(
        &mut self,
        req: u64,
        id: u32,
        parent: u32,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        let span = Span {
            req,
            id,
            parent,
            name,
            start,
            end,
        };
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        }
        span
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        req: u64,
        id: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Span) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(req, id, parent, name, start, end))
    }
}

/// Write spans as tab-separated lines: request, id, parent, name,
/// start_ns, end_ns.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
