//! The clocks the end-to-end figures are taken on: CPU time, not wall time.
//!
//! The runner is a small VM on a shared host whose hypervisor, once an
//! allowance is spent, takes the CPU away for most of every second (it
//! shows as steal in `/proc/stat`).  On the wall clock the same binary then
//! reads two to twenty times slower.  The kernel keeps stolen time — and
//! time spent waiting for a CPU another process holds — out of a thread's
//! and a process's CPU clocks, and on a quiet machine a request that never
//! blocks takes as long on its thread's CPU clock as on the wall.

use std::ffi::{c_int, c_long};
use std::sync::OnceLock;

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    // From the C library std already links.
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Clock {
    /// CPU time of every thread of this process together: stands still
    /// while all of them wait.  For set-up, and for `serve_mixed`, whose
    /// requests run on pool workers while the submitter sleeps.
    Process,
    /// CPU time of the calling thread: for a request that runs where it is
    /// issued.
    Thread,
}

impl Clock {
    /// Nanoseconds on this clock since an origin of its own.
    pub fn now(self) -> u64 {
        // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID of Linux.
        let id = match self {
            Clock::Process => 2,
            Clock::Thread => 3,
        };
        let mut time = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `time` is a valid, writable timespec for the call.
        let status = unsafe { clock_gettime(id, &mut time) };
        assert_eq!(status, 0, "clock_gettime({id}) failed");
        time.sec as u64 * 1_000_000_000 + time.nsec as u64
    }

    /// What two readings one after the other differ by: reading a CPU
    /// clock is a system call of about 0.2 µs, which an interval between
    /// two readings contains once.  Measured once per clock.
    pub fn reading_cost(self) -> u64 {
        static COST: [OnceLock<u64>; 2] = [OnceLock::new(), OnceLock::new()];
        *COST[self as usize].get_or_init(|| {
            let mut gaps: Vec<u64> = (0..256)
                .map(|_| {
                    let first = self.now();
                    self.now() - first
                })
                .collect();
            gaps.sort_unstable();
            gaps[gaps.len() / 2]
        })
    }

    /// Nanoseconds from the reading `start` to the reading `end`, without
    /// the cost of a reading.
    pub fn between(self, start: u64, end: u64) -> u64 {
        (end - start).saturating_sub(self.reading_cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(millis: u64) {
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(millis) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn cpu_clocks_run_while_working_and_stand_while_sleeping() {
        for clock in [Clock::Process, Clock::Thread] {
            let start = clock.now();
            spin(20);
            let worked = clock.between(start, clock.now());
            // Other tests' threads count towards the process clock.
            assert!(worked > 10_000_000, "{clock:?} {worked}");
        }
        let start = Clock::Thread.now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = Clock::Thread.between(start, Clock::Thread.now());
        assert!(slept < 5_000_000, "{slept}");
    }

    #[test]
    fn a_reading_costs_little_and_is_taken_off() {
        let cost = Clock::Thread.reading_cost();
        assert!(cost > 0 && cost < 50_000, "{cost}");
        let now = Clock::Thread.now();
        assert_eq!(Clock::Thread.between(now, now + cost / 2), 0);
        assert_eq!(Clock::Thread.between(now, now + cost + 7), 7);
    }
}
