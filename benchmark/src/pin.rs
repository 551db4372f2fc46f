//! Pin the two things the host could otherwise change under a run.
//!
//! On the two-vCPU reference VM, runs of one commit fell into modes 30–40 %
//! apart, for two reasons that have nothing to do with the code under
//! test:
//!
//! * **Thread placement.** Every actor is a thread and every channel hop
//!   a wake-up. When the scheduler spread a run's threads over both
//!   vCPUs, each hop became a cross-CPU wake-up (an IPI, which a VM pays
//!   dearly for): `chain_mov` ran at 85 instead of 125 requests/s and
//!   `serve_small` burnt 1.8 instead of 1.2 CPU-ms per request. Which mode
//!   a run got depended on what had run before it. The process is
//!   therefore confined to one CPU — the lowest it is allowed on. The
//!   price: the benchmark measures no parallel speed-up, and claims none.
//! * **The allocator's mode.** glibc adjusts its mmap threshold as large
//!   blocks are freed, so whether `stream_copy`'s 8 MiB arrays come from
//!   fresh zero pages (a page fault per 4 KiB) or from the retained heap
//!   depended on timing: 16 or 21 requests/s, peak RSS 52 or 98 MB. The
//!   thresholds are therefore fixed at values that keep freed memory in
//!   the process, the faster of the two modes the default drifts between.
//!
//! Both use libc, which std already links; there is no safe std API for
//! either.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

// <malloc.h>
const M_TRIM_THRESHOLD: c_int = -1;
const M_TOP_PAD: c_int = -2;
const M_MMAP_THRESHOLD: c_int = -3;

/// Confine this process (and every thread it spawns later) to its lowest
/// allowed CPU and fix the allocator's thresholds. Call first in `main`,
/// while the process is single-threaded. Returns the CPU chosen, or
/// `None` if the affinity calls failed (the run then goes on unpinned and
/// says so).
pub fn pin_process() -> Option<usize> {
    // The largest threshold glibc accepts (half its 64 MiB heap size):
    // `stream_copy`'s arrays stay below it and are served from the heap.
    // A never-reached trim threshold and a generous top pad keep freed
    // memory in the process instead of returning it page by page.
    for (param, value) in [
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_TRIM_THRESHOLD, 1 << 30),
        (M_TOP_PAD, 64 << 20),
    ] {
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own state; no other thread exists yet to race it.
        if unsafe { mallopt(param, value) } != 1 {
            eprintln!(
                "ledger: mallopt({param}, {value}) was refused; allocator left at its default"
            );
        }
    }
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = set
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed; the
    // mask names a CPU the kernel just reported as allowed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}
