//! Moving a load thread between CPUs.
//!
//! On a shared host one CPU can run markedly slower than another for
//! tens of seconds. A one-thread closed loop that the scheduler leaves on
//! one CPU then measures that CPU alone, and runs differ by which CPU they
//! landed on. [`Rotation`] moves the calling thread to the next allowed
//! CPU in turn every few milliseconds, so every run samples all of them
//! alike.

use std::time::{Duration, Instant};

/// Words in a kernel CPU mask (`cpu_set_t`, 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get_mask() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Best effort: a mask the kernel refuses leaves the thread where it is.
fn set_mask(mask: &[u64; MASK_WORDS]) {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

/// Rotates the calling thread over the CPUs it was allowed at creation;
/// restores the original mask on drop.
pub struct Rotation {
    original: Option<[u64; MASK_WORDS]>,
    cpus: Vec<usize>,
    next: usize,
    last: Instant,
}

impl Rotation {
    /// How long the thread stays on one CPU.
    pub const PERIOD: Duration = Duration::from_millis(20);

    pub fn new() -> Rotation {
        let original = get_mask();
        let cpus = original.map_or_else(Vec::new, |mask| {
            (0..MASK_WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        let mut r = Rotation {
            original,
            cpus,
            next: 0,
            last: Instant::now(),
        };
        r.step();
        r
    }

    /// CPUs the rotation moves over (none when the mask is unreadable).
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Moves to the next CPU now.
    pub fn step(&mut self) {
        self.last = Instant::now();
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set_mask(&mask);
    }

    /// Moves to the next CPU once the thread has stayed a period on this one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::PERIOD {
            self.step();
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            set_mask(mask);
        }
    }
}
