//! Steadying the host clock: one CPU, and machine-speed calibration.
//!
//! The process first pins itself, and so every thread it later spawns (the
//! `rpc-ctc` RPC worker), to a single CPU ([`pin_to_one_cpu`]).  Left free,
//! the scheduler places the client and the RPC worker on the same CPU in one
//! run and on two in the next, and hand-offs between CPUs cost a different
//! amount on every run of a shared host.
//!
//! On a shared machine the speed of the same code drifts by tens of percent
//! within seconds as neighbours come and go, and a run of tens of seconds cannot
//! average that out.  So host time is measured against a fixed reference
//! kernel that belongs to the benchmark (none of the program's code runs in
//! it), and reported scaled to a machine on which that kernel takes a
//! nominal time: `reported = measured × nominal / kernel_µs`.  A change that
//! slows the program raises the reported time; a machine that slows down
//! slows the kernel alike and cancels out.
//!
//! * [`calibrated`] brackets one measurement by two runs of the kernel.
//! * [`Segmented`] follows a pass that lasts seconds: the machine switches
//!   speed more often than that, so the kernel runs between the timed calls
//!   every [`SEGMENT_US`] of measured time, and each segment is scaled by
//!   the kernel timings on either side of it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Time of the reference kernel on the reference machine, in µs.
pub const NOMINAL_US: f64 = 30_000.0;

/// Measured host time after which [`Segmented`] closes a segment, in µs.
pub const SEGMENT_US: f64 = 250_000.0;

/// Values the kernel generates, sorts and buckets.
const KERNEL_ITEMS: u64 = 200_000;

/// Words in the buffer the kernel strides through (2 MiB, beyond the
/// per-core caches), small enough not to dominate the process's peak RSS.
const KERNEL_WORDS: usize = 1 << 18;

/// Strided updates the kernel makes to that buffer.
const KERNEL_STEPS: usize = 1 << 19;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times one run of the reference kernel — allocation, a sort, ordered map
/// updates, string hashing and a strided memory sweep, the mix a
/// control plane spends its time on — in µs.
pub fn kernel_us() -> f64 {
    let begin = Instant::now();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut values: Vec<u64> = (0..KERNEL_ITEMS).map(|_| splitmix64(&mut state)).collect();
    values.sort_unstable();
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for value in values.iter().step_by(2) {
        *buckets.entry(value % 8_192).or_insert(0) += value >> 8;
    }
    let mut names: HashMap<String, u64> = HashMap::new();
    for value in values.iter().step_by(8) {
        *names.entry(format!("k{}", value % 4_096)).or_insert(0) += 1;
    }
    let mut words = vec![0u64; KERNEL_WORDS];
    let mut index = 0usize;
    for step in 0..KERNEL_STEPS {
        index = (index + 4_099) % KERNEL_WORDS;
        words[index] = words[index].wrapping_add(step as u64);
    }
    black_box((buckets, names, words));
    begin.elapsed().as_secs_f64() * 1e6
}

/// Words in a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on.  Returns that CPU, or `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = CPU_SET_WORDS * std::mem::size_of::<u64>();
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable `cpu_set_t` of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&word| word != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut single = [0u64; CPU_SET_WORDS];
    single[word] = 1 << (cpu % 64);
    // SAFETY: `single` is a readable `cpu_set_t` of `size` bytes.
    if unsafe { sched_setaffinity(0, size, single.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Runs `measure` between two kernel timings and returns its result with
/// the scale factor `NOMINAL_US / mean kernel time` to apply to the host
/// times it took.
pub fn calibrated<R>(measure: impl FnOnce() -> R) -> (R, f64) {
    let before = kernel_us();
    let result = measure();
    let after = kernel_us();
    (result, 2.0 * NOMINAL_US / (before + after))
}

/// Host time of one pass, calibrated segment by segment (see the module
/// documentation).  The kernel runs only inside [`Segmented::add`], which
/// the caller invokes between timed calls, so no timed call includes it.
#[derive(Debug)]
pub struct Segmented {
    kernel_before_us: f64,
    segment_ns: u128,
    raw_us: f64,
    calibrated_us: f64,
}

impl Segmented {
    /// Opens the first segment with a kernel timing.
    pub fn start() -> Segmented {
        Segmented {
            kernel_before_us: kernel_us(),
            segment_ns: 0,
            raw_us: 0.0,
            calibrated_us: 0.0,
        }
    }

    /// Adds `ns` of measured host time, closing the segment once it holds
    /// [`SEGMENT_US`].
    pub fn add(&mut self, ns: u128) {
        self.segment_ns += ns;
        if self.segment_ns as f64 >= SEGMENT_US * 1e3 {
            self.close();
        }
    }

    fn close(&mut self) {
        let after_us = kernel_us();
        let measured_us = self.segment_ns as f64 / 1e3;
        self.raw_us += measured_us;
        self.calibrated_us += measured_us * 2.0 * NOMINAL_US / (self.kernel_before_us + after_us);
        self.kernel_before_us = after_us;
        self.segment_ns = 0;
    }

    /// Closes the last segment and returns `(calibrated µs, measured µs)`.
    pub fn finish(mut self) -> (f64, f64) {
        if self.segment_ns > 0 {
            self.close();
        }
        (self.calibrated_us, self.raw_us)
    }
}
