//! The box's speed, measured beside the program's.
//!
//! A shared host does not run at one speed: for seconds to minutes at a time
//! the same code on the same CPU takes 1.2 to 1.5 times as long (a neighbour
//! on the sibling hardware thread, a lower clock), and neither the wall clock
//! nor the process's CPU time can tell that from a slower program.  So the
//! benchmark times a fixed piece of work of its own -- the kernel below, which
//! no change to the program can speed up -- next to everything it times of the
//! program, and reports host time in *reference seconds*: seconds as they
//! would read on a box that runs the kernel at [`REFERENCE_CHUNK_NS`].
//!
//! The program slows more than the kernel does.  Over 240 runs of the five
//! gated workloads (`baseline/steadiness.txt`) a run's rate followed the
//! kernel's speed during it with an exponent between 0.7 and 2.2, workload by
//! workload and calm spell or noisy one -- the simulator's working set is
//! hundreds of megabytes, the kernel's one -- so a reading is raised to
//! [`SENSITIVITY`] before anything is divided by it.

use crate::sys;

/// Words in the kernel's table: 1 MiB, so it misses the L1 cache and hits the
/// L2, as the simulator's node images and maps mostly do.
const TABLE_WORDS: usize = 1 << 17;
/// Steps in one timed chunk (about half a millisecond).
const CHUNK_STEPS: usize = 64 * 1_024;
/// Chunks per measurement; the fastest counts, since an interrupt can only
/// make a chunk slower.
const CHUNKS: usize = 6;

/// Thread-CPU nanoseconds one chunk takes on the reference box (2 vCPUs of a
/// 2.1 GHz Sapphire Rapids Xeon) when nothing slows it.  Only a scale: it
/// makes `host_kops_per_s` and `setup_s` read as they do on that box.
pub const REFERENCE_CHUNK_NS: f64 = 670_000.0;

/// How much more the program slows than the kernel, as an exponent: the
/// middle of what the runs showed.  At 1 the runs of a noisy hour spread up to
/// twice as wide (outliers 22 % off, against 15 %); at 2 those of a calm hour
/// do (a reading's own noise counts double).
pub const SENSITIVITY: f64 = 1.5;

/// A fixed piece of work: a chain of dependent pseudo-random
/// read-modify-writes into a table, half arithmetic and half cache.
pub struct Kernel {
    table: Vec<u64>,
    state: u64,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    fn chunk(&mut self) {
        let mut x = self.state;
        for _ in 0..CHUNK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % TABLE_WORDS];
            *slot = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(x);
            x ^= *slot >> 29;
        }
        self.state = std::hint::black_box(x);
    }

    /// The speed at which the box runs the program now, as a share of the
    /// reference box's: 1 when a chunk takes [`REFERENCE_CHUNK_NS`] of the
    /// calling thread's CPU time, 0.7 when it takes 1.27 times that
    /// ([`SENSITIVITY`]).  Costs about 3 ms.
    pub fn speed(&mut self) -> f64 {
        let fastest = (0..CHUNKS)
            .map(|_| {
                let began = sys::thread_cpu_ns();
                self.chunk();
                sys::thread_cpu_ns() - began
            })
            .min()
            .expect("CHUNKS is at least one");
        (REFERENCE_CHUNK_NS / fastest.max(1) as f64).powf(SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_a_positive_finite_share_and_roughly_repeats() {
        let mut kernel = Kernel::new();
        let (a, b) = (kernel.speed(), kernel.speed());
        assert!(a.is_finite() && a > 0.0 && b.is_finite() && b > 0.0);
        // Two readings a few milliseconds apart: the same box.
        assert!(a / b < 3.0 && b / a < 3.0, "{a} against {b}");
    }
}
