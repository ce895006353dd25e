//! OS-measured CPU time, read with `clock_gettime`.
//!
//! The process clock keeps the time of threads that already exited, so a
//! run whose workers were joined before it returned is still charged in
//! full. Subtracting the calling thread's own clock leaves every other
//! thread of the process: with one inline generator shard, that is the
//! workers, the executor and the sampler, without the generator.

use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux CPU clocks");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn read_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // both clock ids are defined by Linux for every process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("negative CPU clock"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec out of range"),
    )
}

/// CPU time of every thread of this process, live or exited.
pub fn process_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and CPU clocks at the start of a measured interval.
pub struct CpuMeter {
    wall: Instant,
    process: Duration,
    caller: Duration,
}

/// Wall and CPU seconds of one measured interval.
#[derive(Clone, Copy, Debug)]
pub struct CpuSample {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of every thread but the caller.
    pub others_s: f64,
    /// CPU seconds of the calling thread.
    pub caller_s: f64,
}

impl CpuMeter {
    /// Start measuring on the calling thread.
    pub fn start() -> CpuMeter {
        CpuMeter {
            caller: thread_cpu(),
            process: process_cpu(),
            wall: Instant::now(),
        }
    }

    /// The interval since [`CpuMeter::start`]; call on the same thread.
    pub fn stop(&self) -> CpuSample {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let process = process_cpu().saturating_sub(self.process).as_secs_f64();
        let caller = thread_cpu().saturating_sub(self.caller).as_secs_f64();
        CpuSample {
            wall_s,
            others_s: (process - caller).max(0.0),
            caller_s: caller,
        }
    }
}

impl CpuSample {
    /// Cores the other threads used on average over the interval.
    pub fn other_cores(&self) -> f64 {
        self.others_s / self.wall_s
    }

    /// Cores the calling thread used on average over the interval.
    pub fn caller_cores(&self) -> f64 {
        self.caller_s / self.wall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin_for(d: Duration) {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_spinning_thread_reads_about_its_wall_time() {
        let (cpu, wall) = std::thread::spawn(|| {
            let t0 = thread_cpu();
            let w0 = Instant::now();
            spin_for(Duration::from_millis(300));
            (thread_cpu() - t0, w0.elapsed())
        })
        .join()
        .expect("spinner panicked");
        let ratio = cpu.as_secs_f64() / wall.as_secs_f64();
        // A shared host may preempt the spinner; it can never exceed wall.
        assert!(ratio > 0.5 && ratio <= 1.01, "spin ratio {ratio}");
    }

    #[test]
    fn a_sleeping_thread_reads_about_zero() {
        let cpu = std::thread::spawn(|| {
            let t0 = thread_cpu();
            std::thread::sleep(Duration::from_millis(300));
            thread_cpu() - t0
        })
        .join()
        .expect("sleeper panicked");
        assert!(cpu < Duration::from_millis(10), "sleep cost {cpu:?}");
    }

    #[test]
    fn other_threads_are_charged_and_the_caller_is_not() {
        let meter = CpuMeter::start();
        let spun = std::thread::spawn(|| {
            let t0 = thread_cpu();
            spin_for(Duration::from_millis(300));
            thread_cpu() - t0
        })
        .join()
        .expect("spinner panicked");
        let s = meter.stop();
        // The joined spinner exited before `stop`, and still counts. Tests
        // running in parallel share the process clock, so only the lower
        // bound is exact.
        assert!(
            spun > Duration::from_millis(100),
            "spinner starved: {spun:?}"
        );
        assert!(s.others_s >= spun.as_secs_f64() * 0.99, "{s:?} vs {spun:?}");
        assert!(s.caller_s < 0.01, "{s:?}");
    }
}
