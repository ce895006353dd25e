//! The correctness gate every measured run passes through.
//!
//! A run that breaks any of these counts as failed: its packets are
//! reported as failed operations and the benchmark exits non-zero.

use crate::pct::whole_run_latency;
use metronome_runtime::RunReport;

/// Everything wrong with a realtime report, one line each (empty when it
/// passes). The realtime runner drains before it stops, so nothing may be
/// in flight, every forwarded packet must be stamped, and the pool must
/// be whole.
pub fn violations(r: &RunReport) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    let totals = r.timeseries.as_ref().map(|ts| &ts.totals);
    check(totals.is_some(), "no time series".into());
    let in_flight: u64 = totals.map_or(0, |t| t.occupancy.iter().sum());
    check(in_flight == 0, format!("{in_flight} packets left in rings"));

    // Exact conservation, in total and per queue.
    check(
        r.offered == r.forwarded + r.dropped,
        format!(
            "offered {} != forwarded {} + dropped {}",
            r.offered, r.forwarded, r.dropped
        ),
    );
    check(
        r.dropped == r.dropped_ring + r.dropped_pool + r.dropped_fault,
        format!(
            "dropped {} != ring {} + pool {} + fault {}",
            r.dropped, r.dropped_ring, r.dropped_pool, r.dropped_fault
        ),
    );
    let drained: u64 = r.queues.iter().map(|q| q.drained).sum();
    check(
        drained == r.forwarded,
        format!("per-queue drained {drained} != forwarded {}", r.forwarded),
    );
    let queue_dropped: u64 = r.queues.iter().map(|q| q.dropped).sum();
    check(
        queue_dropped == r.dropped.saturating_sub(r.dropped_fault),
        format!(
            "per-queue dropped {queue_dropped} != dropped {} - fault {}",
            r.dropped, r.dropped_fault
        ),
    );

    // The whole-run histogram holds every forwarded packet.
    match whole_run_latency(r) {
        Some(h) => check(
            h.count() == r.forwarded,
            format!(
                "latency histogram holds {} packets, {} forwarded",
                h.count(),
                r.forwarded
            ),
        ),
        None => check(false, "no whole-run latency histogram".into()),
    }

    // A whole pool: every buffer home, none left in a cache.
    match &r.mempool {
        Some(m) => {
            check(
                m.allocs == m.frees,
                format!("pool allocs {} != frees {}", m.allocs, m.frees),
            );
            check(m.cached == 0, format!("{} buffers left cached", m.cached));
        }
        None => check(false, "report without pool stats".into()),
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_runtime::QueueReport;
    use metronome_sim::stats::Histogram;
    use metronome_sim::Nanos;
    use metronome_telemetry::{CounterSnapshot, Sampler};

    /// A report that passes every check.
    fn report(offered: u64, forwarded: u64, dropped: u64) -> RunReport {
        let mut r =
            RunReport::from_counts("gate", Nanos::from_millis(10), offered, forwarded, dropped);
        r.queues = vec![QueueReport {
            mean_vacation_us: 0.0,
            mean_busy_us: 0.0,
            nv: 0.0,
            rho: 0.0,
            total_tries: 0,
            busy_tries: 0,
            busy_try_fraction: 0.0,
            drained: forwarded,
            dropped,
            dropped_pool: 0,
        }];
        let mut hist = Histogram::latency();
        hist.record_n(1_000, forwarded);
        let mut sampler = Sampler::new(Nanos::from_millis(10));
        let mut snap = CounterSnapshot::new(Nanos::from_millis(10));
        snap.latency = Some(hist);
        sampler.sample(snap);
        r.timeseries = Some(sampler.into_series());
        r.mempool = Some(metronome_dpdk::MempoolStats {
            population: 64,
            allocs: forwarded + dropped,
            frees: forwarded + dropped,
            ..Default::default()
        });
        r
    }

    #[test]
    fn a_conserving_report_passes() {
        assert!(violations(&report(10, 8, 2)).is_empty());
    }

    #[test]
    fn lost_packets_fail() {
        let mut r = report(10, 8, 2);
        r.offered = 11;
        assert_eq!(violations(&r).len(), 1);
    }

    #[test]
    fn a_leaking_pool_fails() {
        let mut r = report(10, 10, 0);
        r.mempool.as_mut().unwrap().frees = 9;
        assert_eq!(violations(&r).len(), 1);
        r.mempool = None;
        assert_eq!(violations(&r).len(), 1, "missing pool stats");
    }
}
