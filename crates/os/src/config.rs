//! Configuration for the operating-system model.
//!
//! Defaults reproduce the paper's testbed: a Linux 5.4 box with Intel Xeon
//! Silver cores at 2.1 GHz, CFS scheduling, and the `performance` or
//! `ondemand` cpufreq governors.

use metronome_sim::Nanos;

/// Which cpufreq governor drives core frequencies (paper §V-C/§V-F.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Governor {
    /// Pin every core at maximum frequency while executing.
    Performance,
    /// Sample utilization periodically; jump to max above the up-threshold,
    /// scale down proportionally below it.
    Ondemand,
}

/// CPU frequency plan: the ladder of P-states the governor picks from.
#[derive(Clone, Debug)]
pub struct FreqPlan {
    /// Available frequencies in MHz, ascending. The last entry is max.
    pub ladder_mhz: Vec<u32>,
}

impl Default for FreqPlan {
    fn default() -> Self {
        // Xeon Silver 4110-style ladder topping at the paper's 2.1 GHz.
        FreqPlan {
            ladder_mhz: vec![800, 1000, 1200, 1400, 1600, 1800, 2000, 2100],
        }
    }
}

impl FreqPlan {
    /// Maximum frequency.
    pub fn max_mhz(&self) -> u32 {
        *self.ladder_mhz.last().expect("empty ladder")
    }

    /// Minimum frequency.
    pub fn min_mhz(&self) -> u32 {
        self.ladder_mhz[0]
    }

    /// Smallest ladder frequency ≥ `target`, or max if none.
    pub fn step_at_least(&self, target_mhz: u32) -> u32 {
        for &f in &self.ladder_mhz {
            if f >= target_mhz {
                return f;
            }
        }
        self.max_mhz()
    }
}

/// CFS-like scheduler constants (Linux defaults for a small-core box).
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Target scheduling latency — a runnable task waits at most about this
    /// long under moderate load.
    pub sched_latency: Nanos,
    /// Minimum slice a running task keeps before tick preemption.
    pub min_granularity: Nanos,
    /// A waking task preempts the running one only if its vruntime is at
    /// least this far behind.
    pub wakeup_granularity: Nanos,
    /// Period of the scheduler tick while a core is contended.
    pub tick: Nanos,
    /// Multiplier applied to work executed while the core has more than one
    /// runnable thread — models cache/TLB thrash between co-scheduled
    /// hot threads (calibrated so static DPDK + ferret reproduce the paper's
    /// Fig. 12/Table II shapes; see DESIGN.md §3).
    pub contention_inflation: f64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            sched_latency: Nanos::from_millis(6),
            min_granularity: Nanos::from_micros(750),
            wakeup_granularity: Nanos::from_millis(1),
            tick: Nanos::from_millis(1),
            contention_inflation: 1.45,
        }
    }
}

/// Rare kernel-daemon interference: short bursts of highest-priority work
/// that delay everything on a core. This is what makes a few vacation
/// periods exceed `TL` in the paper's Fig. 4 ("actual CPU-reschedules after
/// a sleep period can occur after the maximum time delay TL, because of
/// CPU-scheduling decisions by the OS — for example favoring OS-kernel
/// demons").
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Mean interval between interference bursts per core (Poisson).
    /// `None` disables interference.
    pub mean_interval: Option<Nanos>,
    /// Log-normal parameters of the burst duration (of the underlying
    /// normal, in ln-nanoseconds).
    pub duration_mu_ln_ns: f64,
    /// Log-normal sigma.
    pub duration_sigma: f64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            // ~1 burst per second per core, ~15 µs median with a lognormal
            // tail: enough to put a visible but small beyond-TL tail in
            // Fig. 4 without causing measurable packet loss at line rate
            // (Table I reports exactly 0 loss at V̄ ≤ 10 µs).
            mean_interval: Some(Nanos::from_millis(800)),
            duration_mu_ln_ns: (15_000f64).ln(),
            duration_sigma: 0.45,
        }
    }
}

impl DaemonConfig {
    /// No interference at all (for clean calibration runs).
    pub fn disabled() -> Self {
        DaemonConfig {
            mean_interval: None,
            ..Default::default()
        }
    }
}

/// Package power model (RAPL-style accounting).
///
/// `P(t) = uncore + Σ_core p_core(t)` where a running core burns
/// `active_max · (f/f_max)^exp`, an idle core burns the C1 or C6 floor
/// depending on how long it has been idle, and every wake transition costs
/// a fixed energy. Calibrated against the paper's Fig. 11 envelope
/// (one busy-polling core ≈ 24 W package; max ondemand gain ≈ 27%).
#[derive(Clone, Debug)]
pub struct PowerConfig {
    /// Constant uncore/package floor in watts.
    pub uncore_watts: f64,
    /// Active power of one core at maximum frequency, watts.
    pub core_active_max_watts: f64,
    /// Exponent of the frequency-power curve (f·V² ≈ f^2.2–2.6).
    pub freq_exponent: f64,
    /// Power in the shallow C1 idle state, watts.
    pub c1_watts: f64,
    /// Power in the deep C6 idle state, watts.
    pub c6_watts: f64,
    /// Idle interval needed before the core drops from C1 to C6.
    pub c6_entry: Nanos,
    /// Energy cost of one sleep→run transition, joules.
    pub wake_energy_joules: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            uncore_watts: 15.0,
            core_active_max_watts: 4.6,
            freq_exponent: 2.4,
            c1_watts: 0.9,
            c6_watts: 0.35,
            c6_entry: Nanos::from_micros(200),
            wake_energy_joules: 1.0e-6,
        }
    }
}

/// Timer-slack handling for `nanosleep()` (paper §III-A): threads outside
/// the real-time class get a kernel-imposed slack unless `prctl()` lowers
/// it to the 1 µs floor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerSlack {
    /// `prctl(PR_SET_TIMERSLACK, 1)` — the best case the paper compares
    /// `hr_sleep()` against in Fig. 1. The real-thread runtime runs its
    /// sleeps in this configuration (`metronome_core::realtime::lower_timer_slack`).
    MinimalOneMicro,
    /// The default 50 µs slack of a non-RT thread.
    DefaultFifty,
}

/// Full OS model configuration.
#[derive(Clone, Debug)]
pub struct OsConfig {
    /// Number of CPU cores on the (isolated) NUMA node.
    pub n_cores: usize,
    /// Frequency plan shared by all cores.
    pub freq: FreqPlan,
    /// Governor choice.
    pub governor: Governor,
    /// Governor sampling period (Linux ondemand default: 10 ms).
    pub governor_sample: Nanos,
    /// Fraction of utilization above which ondemand jumps to max frequency.
    pub ondemand_up_threshold: f64,
    /// Scheduler constants.
    pub sched: SchedConfig,
    /// Kernel-daemon interference.
    pub daemon: DaemonConfig,
    /// Power model.
    pub power: PowerConfig,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            n_cores: 8,
            freq: FreqPlan::default(),
            governor: Governor::Performance,
            governor_sample: Nanos::from_millis(10),
            ondemand_up_threshold: 0.80,
            sched: SchedConfig::default(),
            daemon: DaemonConfig::default(),
            power: PowerConfig::default(),
        }
    }
}

/// Kernel nice→weight mapping (each nice step ≈ 1.25× CPU share, anchored
/// at 1024 for nice 0 — matches the kernel's `sched_prio_to_weight` to
/// within rounding).
pub fn nice_weight(nice: i8) -> f64 {
    debug_assert!((-20..=19).contains(&nice), "nice out of range");
    1024.0 * 1.25f64.powi(-(nice as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nice_weight_matches_kernel_anchors() {
        assert_eq!(nice_weight(0), 1024.0);
        // Kernel: nice -20 = 88761, nice 19 = 15.
        assert!((nice_weight(-20) - 88761.0).abs() / 88761.0 < 0.01);
        assert!((nice_weight(19) - 15.0).abs() < 0.5);
    }

    #[test]
    fn weight_monotone_in_priority() {
        let mut prev = f64::INFINITY;
        for nice in -20..=19 {
            let w = nice_weight(nice);
            assert!(w < prev);
            prev = w;
        }
    }

    #[test]
    fn freq_plan_steps() {
        let p = FreqPlan::default();
        assert_eq!(p.max_mhz(), 2100);
        assert_eq!(p.min_mhz(), 800);
        assert_eq!(p.step_at_least(900), 1000);
        assert_eq!(p.step_at_least(2100), 2100);
        assert_eq!(p.step_at_least(5000), 2100);
        assert_eq!(p.step_at_least(100), 800);
    }

    #[test]
    fn default_config_sane() {
        let c = OsConfig::default();
        assert!(c.n_cores >= 1);
        assert!(c.ondemand_up_threshold > 0.0 && c.ondemand_up_threshold <= 1.0);
        assert!(c.sched.contention_inflation >= 1.0);
        assert!(c.power.c6_watts < c.power.c1_watts);
        assert!(c.power.c1_watts < c.power.core_active_max_watts);
    }
}
