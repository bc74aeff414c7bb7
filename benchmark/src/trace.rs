//! Spans recorded by the benchmark around its own calls into the layers.
//!
//! The tree is `run → worker(thread) → op` for the workload and
//! `run → probe → <layer probe>` for the probes.  Spans live in pre-allocated
//! buffers while the run is timed and are written afterwards as a chrome
//! trace (`chrome://tracing`, Perfetto).  Spans inside the program are a later
//! issue; these are taken from outside.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

/// Id of the root span.
pub const RUN_SPAN: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    /// Thread lane in the trace viewer.
    pub lane: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub fabric_start_ns: u64,
    pub fabric_end_ns: u64,
    /// `OpStats` counts of the call (zero for spans that are not operations).
    pub round_trips: u32,
    pub bytes_read: u32,
    pub bytes_written: u32,
    pub retries: u32,
}

impl Span {
    /// A span with host times only; fabric times and counts are filled in
    /// with struct-update syntax where there are any.
    pub fn host_only(
        name: &'static str,
        id: u32,
        parent: u32,
        lane: u32,
        host: (u64, u64),
    ) -> Span {
        Span {
            name,
            id,
            parent,
            lane,
            host_start_ns: host.0,
            host_end_ns: host.1,
            fabric_start_ns: 0,
            fabric_end_ns: 0,
            round_trips: 0,
            bytes_read: 0,
            bytes_written: 0,
            retries: 0,
        }
    }
}

/// The most recent `capacity` spans of one thread.  A ring, so that recording
/// costs the same for the whole traced window however long the run is.
#[derive(Debug)]
pub struct SpanRing {
    buf: Vec<Span>,
    capacity: usize,
    next: usize,
    recorded: u64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    pub fn push(&mut self, span: Span) {
        if self.buf.len() < self.capacity {
            self.buf.push(span);
        } else {
            self.buf[self.next] = span;
        }
        self.next = (self.next + 1) % self.capacity;
        self.recorded += 1;
    }

    /// Spans recorded, including those the ring has since overwritten.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    pub fn spans(&self) -> &[Span] {
        &self.buf
    }
}

/// Nanoseconds since `origin`, the run's host-time zero.
pub fn host_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn event(span: &Span) -> Json {
    Json::obj([
        ("name", Json::str(span.name)),
        ("ph", Json::str("X")),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(span.lane as f64)),
        ("ts", Json::Num(span.host_start_ns as f64 / 1e3)),
        (
            "dur",
            Json::Num((span.host_end_ns - span.host_start_ns) as f64 / 1e3),
        ),
        (
            "args",
            Json::obj([
                ("id", Json::Num(span.id as f64)),
                ("parent", Json::Num(span.parent as f64)),
                ("fabric_start_ns", Json::Num(span.fabric_start_ns as f64)),
                ("fabric_end_ns", Json::Num(span.fabric_end_ns as f64)),
                ("round_trips", Json::Num(span.round_trips as f64)),
                ("bytes_read", Json::Num(span.bytes_read as f64)),
                ("bytes_written", Json::Num(span.bytes_written as f64)),
                ("retries", Json::Num(span.retries as f64)),
            ]),
        ),
    ])
}

pub fn chrome_trace(spans: &[Span]) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(spans.iter().map(event).collect())),
    ])
}

/// Write `spans` under `dir` as `trace-<workload>.json`, replacing the last
/// trace of that workload.
pub fn write(dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        chrome_trace(spans).to_line(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn span(id: u32, parent: u32) -> Span {
        Span {
            name: "lookup",
            id,
            parent,
            lane: 1,
            host_start_ns: 10 * id as u64,
            host_end_ns: 10 * id as u64 + 5,
            fabric_start_ns: 0,
            fabric_end_ns: 5_440,
            round_trips: 1,
            bytes_read: 1_024,
            bytes_written: 0,
            retries: 0,
        }
    }

    #[test]
    fn the_ring_keeps_the_latest_spans() {
        let mut ring = SpanRing::new(3);
        for id in 1..=5 {
            ring.push(span(id, RUN_SPAN));
        }
        assert_eq!(ring.recorded(), 5);
        let mut ids: Vec<u32> = ring.spans().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn a_trace_reads_back_and_every_parent_exists() {
        let spans = [span(RUN_SPAN, 0), span(2, RUN_SPAN), span(3, 2)];
        let back = crate::json::parse(&chrome_trace(&spans).to_line()).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
        let ids: HashSet<u64> = events
            .iter()
            .map(|e| arg(e, "id").unwrap() as u64)
            .collect();
        for e in events {
            let parent = arg(e, "parent").unwrap() as u64;
            assert!(parent == 0 || ids.contains(&parent));
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
    }
}
