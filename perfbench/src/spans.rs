//! Spans around the application layer, recorded from outside it.
//!
//! [`SpanProcessor`] wraps the functional processor a queue would get and
//! records one span per `process_burst` call: queue, start, end and burst
//! length, against the epoch of a [`SpanLog`] that also holds the run's
//! own span. Every call is summed; the first [`SPANS_KEPT_PER_QUEUE`]
//! spans of each queue are kept in memory and written out after the run.

use metronome_apps::{BurstVerdicts, PacketProcessor, Verdict};
use metronome_dpdk::Mbuf;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans each queue keeps for the dump (the sums cover every call).
pub const SPANS_KEPT_PER_QUEUE: usize = 16_384;

/// One `process_burst` call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub queue: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub len: u32,
}

/// Totals over every recorded call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub packets: u64,
    pub busy_ns: u64,
    pub forwarded: u64,
}

#[derive(Default)]
struct Collected {
    spans: Vec<Span>,
    totals: SpanTotals,
}

/// The spans of one run, filled in as its processors are dropped.
pub struct SpanLog {
    epoch: Instant,
    run: Mutex<Option<(u64, u64)>>,
    collected: Mutex<Collected>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            run: Mutex::new(None),
            collected: Mutex::new(Collected::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as the run span enclosing every burst span.
    pub fn run_span<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        *self.run.lock().expect("span log poisoned") = Some((start, self.now_ns()));
        out
    }

    /// Totals over every call.
    pub fn totals(&self) -> SpanTotals {
        self.collected.lock().expect("span log poisoned").totals
    }

    /// Kept spans that fall outside the run span (should be none).
    pub fn stray_spans(&self) -> usize {
        let run = *self.run.lock().expect("span log poisoned");
        let collected = self.collected.lock().expect("span log poisoned");
        match run {
            Some((start, end)) => collected
                .spans
                .iter()
                .filter(|s| s.start_ns < start || s.end_ns > end || s.end_ns < s.start_ns)
                .count(),
            None => collected.spans.len(),
        }
    }

    /// Write the run span and the kept burst spans as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let run = *self.run.lock().expect("span log poisoned");
        let collected = self.collected.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,queue,start_ns,end_ns,packets")?;
        if let Some((start, end)) = run {
            writeln!(out, "run,,{start},{end},{}", collected.totals.packets)?;
        }
        let mut spans = collected.spans.clone();
        spans.sort_by_key(|s| s.start_ns);
        for s in &spans {
            writeln!(
                out,
                "burst,{},{},{},{}",
                s.queue, s.start_ns, s.end_ns, s.len
            )?;
        }
        out.flush()
    }
}

/// A queue's processor, wrapped so each burst is timed.
pub struct SpanProcessor {
    inner: Box<dyn PacketProcessor>,
    queue: u32,
    log: Arc<SpanLog>,
    spans: Vec<Span>,
    totals: SpanTotals,
}

impl SpanProcessor {
    pub fn new(inner: Box<dyn PacketProcessor>, queue: usize, log: Arc<SpanLog>) -> SpanProcessor {
        SpanProcessor {
            inner,
            queue: queue as u32,
            log,
            spans: Vec::with_capacity(SPANS_KEPT_PER_QUEUE),
            totals: SpanTotals::default(),
        }
    }
}

impl PacketProcessor for SpanProcessor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cycles_per_packet(&self) -> u64 {
        self.inner.cycles_per_packet()
    }

    fn cycles_per_burst(&self) -> u64 {
        self.inner.cycles_per_burst()
    }

    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        self.inner.process(mbuf)
    }

    fn process_burst(&mut self, mbufs: &mut [Mbuf]) -> BurstVerdicts {
        let start_ns = self.log.now_ns();
        let verdicts = self.inner.process_burst(mbufs);
        let end_ns = self.log.now_ns();
        self.totals.packets += mbufs.len() as u64;
        self.totals.busy_ns += end_ns - start_ns;
        self.totals.forwarded += verdicts.forwarded;
        if self.spans.len() < SPANS_KEPT_PER_QUEUE {
            self.spans.push(Span {
                queue: self.queue,
                start_ns,
                end_ns,
                len: mbufs.len() as u32,
            });
        }
        verdicts
    }
}

impl Drop for SpanProcessor {
    fn drop(&mut self) {
        // A poisoned log already failed the run; never panic in drop.
        if let Ok(mut c) = self.log.collected.lock() {
            c.spans.append(&mut self.spans);
            c.totals.packets += self.totals.packets;
            c.totals.busy_ns += self.totals.busy_ns;
            c.totals.forwarded += self.totals.forwarded;
        }
    }
}
