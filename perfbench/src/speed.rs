//! CPU clocks and the reference work that rescales timings to a nominal
//! host speed.
//!
//! The benchmark runs on shared virtual machines whose speed wanders by
//! tens of percent over minutes: other tenants take the cores' sibling
//! threads, caches and memory bandwidth, and the hypervisor takes whole
//! cores away. Two measures keep one run comparable with the next:
//!
//! * work the benchmark waits for on one thread is timed on the
//!   process's CPU clock, which the guest kernel's steal-time accounting
//!   keeps free of the time the hypervisor held a core (it also counts
//!   any helper threads the work starts); the serve load, which is timed
//!   on the wall clock, has the stolen time ([`stolen`]) taken out;
//! * every timing is paired with the time of a fixed piece of reference
//!   work ([`Reference`]) run right next to it, and rescaled to a host
//!   on which that reference takes [`NOMINAL_OP_S`]. A slower host
//!   slows both alike and the rescaled time stays put; a faster program
//!   moves only its own side.
//!
//! The reference work belongs to the benchmark, not to the program, so
//! no change to the program changes it.

/// Reference seconds of one [`Reference::op`] on the nominal host: the
/// median on a quiet 2-vCPU Xeon guest. A rescaled time reads as the
/// time the work would take on that host.
pub const NOMINAL_OP_S: f64 = 1.45e-3;

/// Seconds of CPU time the calling thread has used.
pub fn thread_cpu() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds of CPU time the whole process has used, every thread and the
/// kernel's work on its behalf included.
pub fn process_cpu() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// `secs` measured while one reference op took `reference` seconds,
/// rescaled to the nominal host.
pub fn rescale(secs: f64, reference: f64) -> f64 {
    secs * NOMINAL_OP_S / reference
}

/// Seconds the hypervisor has held an average core of this machine
/// away from it since boot: the steal column of `/proc/stat`, in clock
/// ticks of 10 ms, over the number of cores. 0 where that file is
/// missing.
pub fn stolen() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks = |line: &str| {
        line.split_whitespace()
            .nth(8)
            .and_then(|t| t.parse::<f64>().ok())
    };
    let total = stat.lines().next().and_then(ticks).unwrap_or(0.0);
    let cores = stat
        .lines()
        .skip(1)
        .take_while(|l| l.starts_with("cpu"))
        .count()
        .max(1);
    total / 100.0 / cores as f64
}

/// Confines the process to the core it is running on, so that worker
/// pools sized from the available parallelism run inline. Returns the
/// mask to hand back to [`restore_cores`]; `None` (nothing changed)
/// where affinity is not supported.
pub fn pin_to_one_core() -> Option<CoreMask> {
    let all = affinity::get()?;
    let here = affinity::current_core()?;
    let mut one = CoreMask([0; 16]);
    one.0[here / 64] = 1 << (here % 64);
    affinity::set(&one).then_some(all)
}

/// Lets the process run on the cores of `mask` again.
pub fn restore_cores(mask: &CoreMask) {
    affinity::set(mask);
}

/// A CPU affinity mask of up to 1024 cores.
#[derive(Debug, Clone, Copy)]
pub struct CoreMask([u64; 16]);

#[cfg(target_os = "linux")]
mod affinity {
    use super::CoreMask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    pub fn get() -> Option<CoreMask> {
        let mut mask = CoreMask([0; 16]);
        // SAFETY: the pointer and size describe `mask`'s 128 writable
        // bytes; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, 128, mask.0.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Applies `mask` to the calling thread, which threads it starts
    /// inherit; returns whether the kernel accepted it.
    pub fn set(mask: &CoreMask) -> bool {
        // SAFETY: the pointer and size describe `mask`'s 128 readable
        // bytes; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, 128, mask.0.as_ptr()) == 0 }
    }

    pub fn current_core() -> Option<usize> {
        // SAFETY: no arguments; returns the core number or -1.
        let core = unsafe { sched_getcpu() };
        usize::try_from(core).ok().filter(|&c| c < 1024)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CoreMask;

    pub fn get() -> Option<CoreMask> {
        None
    }

    pub fn set(_mask: &CoreMask) -> bool {
        false
    }

    pub fn current_core() -> Option<usize> {
        None
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(target_os = "linux")]
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and both clock ids are defined on every Linux target.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the CPU clocks fall back to wall time since first use.
#[cfg(not(target_os = "linux"))]
fn cpu_clock(_clock: i32) -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Fixed work that exercises what the benchmark's workloads lean on, in
/// about equal parts of its time:
///
/// * a dependent chain of floating-point multiply-adds over a 1 MiB
///   array (the codecs' predictors, the models' dot products): core
///   clock speed;
/// * a dependent chain of loads through a 4 MiB table, past the 2 MiB L2
///   of the nominal host: cache latency, and the other tenants' share of
///   the caches;
/// * independent multiply-adds over a 32 KiB array, which the compiler
///   vectorizes, and four independent integer hash lanes: issue width,
///   which a busy sibling hardware thread takes half of.
///
/// Against the pipeline's own cases on a shared host, the first two
/// took the spread of 5 s medians from about 8% to about 3%; the last
/// two cover code that keeps the core's ports busy, which the first two
/// barely do.
pub struct Reference {
    values: Vec<f64>,
    table: Vec<u32>,
    lanes: Vec<f64>,
}

const VALUES: usize = 1 << 17;
const TABLE: usize = 1 << 20;
const LANES: usize = 1 << 12;
const PASSES: usize = 1;
const HOPS: usize = 1 << 15;
const SWEEPS: usize = 200;
const HASHES: usize = 1 << 17;

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let values = (0..VALUES)
            .map(|i| ((i % 97) as f64 - 48.0) / 97.0)
            .collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u32
            })
            .collect();
        let lanes = vec![0.5; LANES];
        let reference = Self {
            values,
            table,
            lanes,
        };
        reference.op();
        reference
    }

    /// One unit of reference work; returns a value that depends on all of
    /// it.
    pub fn op(&self) -> f64 {
        let mut lanes = self.lanes.clone();
        for sweep in 0..SWEEPS {
            let a = 1.0 + sweep as f64 * 1e-6;
            for (y, x) in lanes.iter_mut().zip(&self.values) {
                *y = a * x + *y * 0.5;
            }
        }
        let mut hash = [1u64, 2, 3, 4];
        for _ in 0..HASHES {
            for h in &mut hash {
                *h ^= *h << 13;
                *h ^= *h >> 7;
                *h ^= *h << 17;
            }
        }
        let mut acc = 0.0f64;
        for pass in 0..PASSES {
            let scale = 1.0 + pass as f64 * 1e-3;
            for &v in &self.values {
                acc = acc * 0.999_999 + v * scale;
            }
        }
        let mut at = 0usize;
        let mut sum = 0u64;
        for _ in 0..HOPS {
            let next = self.table[at];
            sum = sum.wrapping_add(u64::from(next));
            at = (next as usize ^ at.rotate_left(7)) & (TABLE - 1);
        }
        let lanes_sum: f64 = lanes.iter().sum();
        let hashed = hash.iter().fold(0u64, |a, h| a ^ h);
        std::hint::black_box(acc + sum as f64 + lanes_sum + hashed as f64)
    }

    /// Thread CPU seconds of one op.
    pub fn op_cpu(&self) -> f64 {
        let t0 = thread_cpu();
        self.op();
        thread_cpu() - t0
    }

    /// Median thread CPU seconds of `ops` ops in a row.
    pub fn sample_cpu(&self, ops: usize) -> f64 {
        crate::stats::median(&(0..ops).map(|_| self.op_cpu()).collect::<Vec<_>>())
    }

    /// Median thread CPU seconds of `ops` ops on each of `threads`
    /// threads at once: the speed of the cores the threads share.
    pub fn sample_cpu_parallel(&self, threads: usize, ops: usize) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| (0..ops).map(|_| self.op_cpu()).collect::<Vec<f64>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        crate::stats::median(&times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let reference = Reference::new();
        let (t0, p0) = (thread_cpu(), process_cpu());
        for _ in 0..3 {
            reference.op();
        }
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
        assert!(reference.sample_cpu(3) > 0.0);
        assert!(reference.sample_cpu_parallel(2, 2) > 0.0);
        assert!(stolen() >= 0.0);
        assert_eq!(rescale(3.0, NOMINAL_OP_S), 3.0);
    }
}
