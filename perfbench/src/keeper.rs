//! Keeps every vCPU out of the idle halt while the benchmark runs.
//!
//! On a virtual machine a halted vCPU is woken by the hypervisor, which
//! may take hundreds of microseconds to milliseconds when the host is busy
//! (it shows as steal time). Metronome sleeps between retrievals, so
//! without a keeper the realtime latencies measure the hypervisor's wake-up
//! path rather than the pipeline: on a 2-vCPU guest, three threads at
//! V̄ = 10 µs and 50 kpps read a p50 of 40–740 µs as host steal rose from
//! 10% to 36%, and 32 µs with the keeper. The keeper is the guest equivalent of booting with
//! `idle=poll`: a child process spins one `SCHED_IDLE` thread per CPU,
//! which runs only when nothing else is runnable and yields at once to
//! any thread that wakes. It is a separate process so that its CPU time
//! stays out of the benchmark's own process clock.

use std::io::Read;
use std::process::{Child, Command, Stdio};

/// The hidden flag that starts the child side.
pub const FLAG: &str = "--keep-vcpus";

const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Move the calling thread to `SCHED_IDLE`; false when the kernel refuses.
fn make_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `sched_param` for the whole call; pid 0
    // names the calling thread, and SCHED_IDLE takes priority 0.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The running keeper; dropping it kills the child and waits for it.
pub struct Keeper {
    child: Child,
}

impl Keeper {
    /// Start the keeper child (this executable run with [`FLAG`]).
    pub fn start() -> std::io::Result<Keeper> {
        let child = Command::new(std::env::current_exe()?)
            .arg(FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()?;
        Ok(Keeper { child })
    }
}

impl Drop for Keeper {
    fn drop(&mut self) {
        // Errors only mean the child is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The child side: spin idle-class threads until the parent closes our
/// standard input (on exit, or when it dies), then exit.
pub fn run_child() -> ! {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..cpus {
        std::thread::spawn(|| {
            // Spinning at normal priority would take CPU from the
            // benchmark; without the idle class, do nothing.
            if make_idle_class() {
                loop {
                    std::hint::spin_loop();
                }
            }
            eprintln!("warning: SCHED_IDLE refused; vCPUs may halt");
        });
    }
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    std::process::exit(0)
}
