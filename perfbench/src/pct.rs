//! Whole-run latency percentiles.
//!
//! `RunReport::latency_us` is a boxplot with no upper percentiles, so the
//! benchmark reads the whole-run histogram the sampler closes the time
//! series with (`timeseries.totals.latency`, present when the scenario
//! records a series). The realtime runner fills it with every forwarded
//! packet.

use metronome_runtime::RunReport;
use metronome_sim::stats::Histogram;

/// Latency percentiles of one run, in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct Percentiles {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

/// The `q`-quantile of a nanosecond histogram, in microseconds,
/// interpolated linearly inside the bucket that [`Histogram::quantile`]
/// names. That call returns the bucket's lower bound, so a run-to-run
/// change smaller than a bucket (1/32 of the value) would not show and
/// identical runs would read identical times.
pub fn quantile_us(h: &Histogram, q: f64) -> Option<f64> {
    let (min, max) = (h.min()?, h.max()?);
    let rank = q.clamp(0.0, 1.0) * h.count() as f64;
    let mut seen = 0u64;
    for (low, high, count) in h.iter_spans() {
        if (seen + count) as f64 >= rank {
            let within = (rank - seen as f64).max(0.0) / count as f64;
            let ns = low as f64 + within * (high - low) as f64;
            return Some(ns.clamp(min as f64, max as f64) / 1e3);
        }
        seen += count;
    }
    Some(max as f64 / 1e3)
}

/// Percentiles of a nanosecond histogram (`None` when it is empty).
pub fn percentiles(h: &Histogram) -> Option<Percentiles> {
    Some(Percentiles {
        p50_us: quantile_us(h, 0.50)?,
        p90_us: quantile_us(h, 0.90)?,
        p99_us: quantile_us(h, 0.99)?,
        p999_us: quantile_us(h, 0.999)?,
    })
}

/// The report's whole-run latency histogram, when it has one.
pub fn whole_run_latency(report: &RunReport) -> Option<&Histogram> {
    report.timeseries.as_ref()?.totals.latency.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_sim::Nanos;
    use metronome_telemetry::{CounterSnapshot, Sampler};

    #[test]
    fn whole_run_percentiles_match_the_histogram_quantiles() {
        // Known sample: 1..=10_000 µs, one packet each.
        let mut hist = Histogram::latency();
        for us in 1..=10_000u64 {
            hist.record(us * 1_000);
        }
        let mut sampler = Sampler::new(Nanos::from_millis(100));
        let mut snap = CounterSnapshot::new(Nanos::from_millis(100));
        snap.latency = Some(hist.clone());
        sampler.sample(snap);
        let mut report =
            RunReport::from_counts("known", Nanos::from_millis(100), 10_000, 10_000, 0);
        report.timeseries = Some(sampler.into_series());

        let p =
            percentiles(whole_run_latency(&report).expect("series has totals")).expect("non-empty");
        for (got, q) in [
            (p.p50_us, 0.5),
            (p.p90_us, 0.9),
            (p.p99_us, 0.99),
            (p.p999_us, 0.999),
        ] {
            // Inside the bucket whose lower bound the histogram names, and
            // within its relative resolution (1/32) of the exact value.
            let low = hist.quantile(q).expect("non-empty") as f64 / 1e3;
            assert!(
                low <= got && got < low * (1.0 + 1.0 / 32.0),
                "q = {q}: {got} outside the bucket at {low}"
            );
            let exact = q * 10_000.0;
            assert!(
                (exact - got).abs() / exact < 1.0 / 64.0,
                "q = {q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn a_report_without_a_series_has_no_whole_run_latency() {
        let report = RunReport::from_counts("bare", Nanos::from_millis(1), 1, 1, 0);
        assert!(whole_run_latency(&report).is_none());
        assert!(percentiles(&Histogram::latency()).is_none());
    }
}
