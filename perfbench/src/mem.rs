//! Resident memory read from `/proc/self`, outside the program under
//! test: the peak resident set size over a stretch of code, minus the
//! resident size just before it.

use std::io;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no {field} in /proc/self/status"),
            )
        })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free heap pages back to the kernel, so that a
/// measurement starts from what the process actually holds.
fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the
    // allocator's own free lists under its own locks, and may be called
    // at any time from any thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
}

/// Run `f` and return its result with the growth of peak resident
/// memory it caused, in bytes. Free heap pages are returned first; then
/// writing `5` to `clear_refs` resets the kernel's peak (`VmHWM`) to the
/// current resident size.
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> io::Result<(R, u64)> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")?;
    let before = status_bytes("VmRSS")?;
    let out = f();
    let peak = status_bytes("VmHWM")?;
    Ok((out, peak.saturating_sub(before)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_growth_sees_a_touched_allocation() {
        let (len, grew) = peak_growth(|| {
            let v = std::hint::black_box(vec![1u8; 64 << 20]);
            v.len()
        })
        .expect("procfs is readable");
        assert_eq!(len, 64 << 20);
        assert!(grew >= 60 << 20, "peak grew by only {grew} bytes");
    }
}
