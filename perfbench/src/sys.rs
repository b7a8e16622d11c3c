//! Host facts: memory, threads of this process, threads of the host.

use std::time::{Duration, Instant};

/// A numeric `/proc/self/status` field. `None` where the file or field
/// does not exist.
fn status_field(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb / 1024.0)
}

/// Current virtual memory of this process, in MB.
pub fn vm_mb() -> Option<f64> {
    status_field("VmSize").map(|kb| kb / 1024.0)
}

/// Waits (up to a second) until this process runs on its main thread
/// alone. `SweepRunner` returns once its workers have finished their
/// tasks, not once they have exited; an exiting worker still holds its
/// malloc arena, so the next pass's workers would create new ones.
pub fn wait_for_worker_exit() {
    let deadline = Instant::now() + Duration::from_secs(1);
    while status_field("Threads").is_some_and(|n| n > 1.0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Threads the host offers this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn memory_fields_parse_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = super::peak_rss_mb().expect("VmHWM");
            let vm = super::vm_mb().expect("VmSize");
            assert!(rss > 0.0 && vm > 0.0);
        }
    }
}
