//! Pins every thread of the process to one CPU at a time.
//!
//! A closed-loop client and the daemon worker answering it hand each
//! request back and forth. On different CPUs every hand-over wakes an idle
//! CPU, and on a shared virtual machine how long that takes depends on the
//! host's load far more than on the program. On one CPU the hand-over is a
//! plain context switch, so the daemon phase measures the work of the
//! client and the daemon rather than the host's scheduler.
//!
//! On a shared host one CPU can also run slow for seconds while another
//! runs at full speed, so the daemon phase moves between the allowed CPUs
//! from one sweep to the next instead of staying on one.

use std::path::Path;

/// The kernel's CPU mask: 1,024 CPUs.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The mask of thread `tid` (0: the calling thread).
#[cfg(target_os = "linux")]
fn get(tid: i32) -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<Mask>()` bytes into
    // `mask`.
    let rc = unsafe { sys::sched_getaffinity(tid, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(tid: i32, mask: &Mask) -> bool {
    // SAFETY: the kernel reads `size_of::<Mask>()` bytes from `mask`.
    unsafe { sys::sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get(_: i32) -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: i32, _: &Mask) -> bool {
    false
}

/// Sets the mask of every thread of the process. Threads spawned later
/// inherit the mask of the thread that spawns them.
fn set_all(mask: &Mask) -> bool {
    let Ok(tasks) = std::fs::read_dir(Path::new("/proc/self/task")) else {
        return false;
    };
    let mut all = true;
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            // A thread may end between the listing and the call.
            all &= set(tid, mask) || get(tid).is_none();
        }
    }
    all
}

/// The process pinned to one allowed CPU at a time; dropping it gives
/// every thread the calling thread's mask from before [`Pinning::new`].
pub struct Pinning {
    previous: Mask,
    cpus: Vec<usize>,
}

impl Pinning {
    /// The CPUs the calling thread may run on, or `None` where the mask
    /// cannot be read; the process then runs unpinned.
    pub fn new() -> Option<Pinning> {
        let previous = get(0)?;
        let cpus: Vec<usize> = (0..previous.len() * 64)
            .filter(|cpu| previous[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        (!cpus.is_empty()).then_some(Pinning { previous, cpus })
    }

    /// Pins every thread to allowed CPU number `turn` (modulo their
    /// count). `false` when the kernel refused.
    pub fn turn(&self, turn: usize) -> bool {
        let cpu = self.cpus[turn % self.cpus.len()];
        let mut one: Mask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_all(&one)
    }
}

impl Drop for Pinning {
    fn drop(&mut self) {
        set_all(&self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_turn_leaves_one_cpu_and_dropping_restores_the_mask() {
        let Some(pinning) = Pinning::new() else {
            return;
        };
        let before = get(0);
        for turn in 0..3 {
            if pinning.turn(turn) {
                let now = get(0).expect("mask readable");
                assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            }
        }
        drop(pinning);
        assert_eq!(get(0), before);
    }
}
