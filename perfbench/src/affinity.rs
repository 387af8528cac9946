//! Thread placement for the serving loops.
//!
//! A read connection's client thread and its server thread are pinned to the
//! same CPU, so each round trip hands off on one core. Left to the
//! scheduler, the two read threads wake each other across cores, which on a
//! virtual machine means waking an idle virtual CPU: the median round trip
//! then moved by about a quarter between runs, against a few percent pinned.

/// glibc's `cpu_set_t`: 1024 bits.
const CPU_SET_BYTES: usize = 128;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on, lowest first (empty when the
/// kernel does not say).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the `CPU_SET_BYTES`
    // bytes passed as its size, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`; false when the kernel refuses.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= CPU_SET_BYTES * 8 {
        return false;
    }
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the `CPU_SET_BYTES`
    // bytes passed as its size, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_be_pinned_to_an_allowed_cpu() {
        let cpu = *allowed_cpus().last().expect("some CPU is allowed");
        let pinned = std::thread::spawn(move || pin_current_thread(cpu) && allowed_cpus() == [cpu])
            .join()
            .unwrap();
        assert!(pinned);
    }
}
