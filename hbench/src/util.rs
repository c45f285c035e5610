//! Small shared helpers: a seeded generator, quantiles, peak RSS, CPU
//! time, the idle-priority CPU pollers and the result line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// SplitMix64: every input of every workload is drawn from one of these,
/// seeded from `--seed`, so the same seed reproduces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for a named sub-stream (stable under reordering of the
    /// other streams).
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set (`VmHWM`) of a process in MB, read from procfs;
/// `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: i32,
    }
    pub const SCHED_IDLE: i32 = 5;
    pub const SC_CLK_TCK: i32 = 2;
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];
    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn sched_getcpu() -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// CPU time (user + system, all threads, exited ones included) a process
/// has used, in seconds, from procfs; `None` where procfs is unavailable.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the whole line.
        let rest = &text[text.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 =
            fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
        // SAFETY: sysconf reads a configuration constant; no memory is shared.
        let per_s = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
        (per_s > 0).then(|| ticks / per_s as f64)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        None
    }
}

/// One busy loop per CPU at `SCHED_IDLE` priority, for as long as the
/// guard lives.
///
/// An idle vCPU of a virtual machine halts, and waking it again waits on
/// the hypervisor's scheduler.  Under an open loop, whose gaps let the
/// vCPUs halt between requests, that wait read as steal time of 15–60 %
/// of the busy time and moved the latencies with it.  A `SCHED_IDLE`
/// thread gives way at once to any normal thread that wakes, so the
/// daemon and the senders run as they would without it, but the vCPUs
/// never halt: the part `idle=poll` plays on a bare-metal benchmark host.
/// Where the policy cannot be set the loops do not run at all.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !set_idle_priority() {
                        eprintln!("hbench: cannot set SCHED_IDLE; this CPU poller stays off");
                        return;
                    }
                    // No `spin_loop` hint: a guest's PAUSE loop makes the
                    // hypervisor deschedule the vCPU, the halt this avoids.
                    while !stop.load(Ordering::Relaxed) {}
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Run `f` with the calling thread, and so every process it starts, held
/// to the CPU it is on; the thread's own CPUs are restored afterwards.
///
/// A hand-off between processes on different CPUs may have to wake a
/// halted vCPU, and how long that takes depends on the hypervisor's load,
/// not on the program.  On one CPU the hand-off is a plain switch.  Where
/// the affinity cannot be read or set, `f` runs unpinned.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    #[cfg(target_os = "linux")]
    {
        let size = std::mem::size_of::<sys::CpuSet>();
        let mut saved: sys::CpuSet = [0; 16];
        // SAFETY: `saved` is a writable `cpu_set_t` of `size` bytes; pid 0
        // is the calling thread.
        let pinned = unsafe {
            let cpu = sys::sched_getcpu();
            let mut one: sys::CpuSet = [0; 16];
            (0..1024).contains(&cpu) && sys::sched_getaffinity(0, size, &mut saved) == 0 && {
                one[cpu as usize / 64] = 1 << (cpu % 64);
                sys::sched_setaffinity(0, size, &one) == 0
            }
        };
        let out = f();
        if pinned {
            // SAFETY: as above; `saved` was filled by sched_getaffinity.
            unsafe { sys::sched_setaffinity(0, size, &saved) };
        }
        out
    }
    #[cfg(not(target_os = "linux"))]
    {
        f()
    }
}

/// Put the calling thread under `SCHED_IDLE`; false where that fails.
fn set_idle_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        let param = sys::SchedParam { sched_priority: 0 };
        // SAFETY: `param` outlives the call, which only reads it; pid 0 is
        // the calling thread.
        unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Metric name → (value, unit), printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.insert(name.into(), (value, unit.to_string()));
    }

    /// Report a layer this workload never calls: no host time, no events.
    pub fn fill(&mut self, name: &str, unit: &str) {
        self.0
            .entry(name.to_string())
            .or_insert((0.0, unit.to_string()));
    }

    /// Exactly the listed metrics, each in its listed unit.
    pub fn conforms(&self, listed: &[(String, String)]) -> Result<(), String> {
        let have: Vec<(&str, &str)> = self
            .0
            .iter()
            .map(|(n, (_, u))| (n.as_str(), u.as_str()))
            .collect();
        let mut want: Vec<(&str, &str)> = listed
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        want.sort_unstable();
        if have == want {
            Ok(())
        } else {
            Err(format!(
                "metrics {have:?} differ from BENCHMARK.json's {want:?}"
            ))
        }
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        use serde_json::Value;
        let metrics = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(attempted)),
            ("failed".into(), Value::UInt(failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_string()
    }
}

/// Outcome tally of one run: operations attempted and failed, and check
/// violations (all count; the first few are printed).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: u64,
    shown: u32,
}

impl Tally {
    /// An operation that could not complete (panic, transport error,
    /// error envelope).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(format!("failed: {what}"));
    }

    /// A completed operation whose output broke a check.
    pub fn violate(&mut self, what: String) {
        self.violations += 1;
        self.note(format!("check: {what}"));
    }

    /// Add the counts of a sub-run that reported its own messages.
    pub fn absorb(&mut self, attempted: u64, failed: u64, violations: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.violations += violations;
    }

    /// Record `cond`'s outcome as a check.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.violate(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.shown < 20 {
            eprintln!("hbench: {msg}");
            self.shown += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.violations == 0
    }
}
