//! Process and file-system probes: memory, CPU time, directory sizes and
//! the per-process run directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicI64};

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`, …); 0 where the
/// file is unavailable.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

/// User + system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// A data directory unique to this process, under the benchmark's own
/// directory; removed when dropped.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Create `<bench dir>/.run/<workload>-<pid>`, clearing any leftover.
    pub fn create(workload: &str) -> std::io::Result<RunDir> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(RunDir { root })
    }

    /// A fresh (emptied) subdirectory path; the caller creates it.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // `.run` itself goes too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The benchmark's global allocator: the system allocator, plus a count
/// of live heap bytes while [`HeapCounter`] is running. The traced run
/// uses it to attribute memory to one call (`advisor.rss_mb`), which an
/// RSS reading cannot do once freed pages are reused.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        }
        p
    }
}

/// Net heap growth over a stretch of code.
pub struct HeapCounter {
    start: i64,
}

impl HeapCounter {
    /// Start counting.
    pub fn start() -> HeapCounter {
        COUNTING.store(true, Relaxed);
        HeapCounter { start: LIVE_BYTES.load(Relaxed) }
    }

    /// Stop counting; the net bytes allocated since [`HeapCounter::start`],
    /// in MiB.
    pub fn stop_mb(self) -> f64 {
        let grown = LIVE_BYTES.load(Relaxed) - self.start;
        COUNTING.store(false, Relaxed);
        grown as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_counter_sees_a_held_allocation() {
        let counter = HeapCounter::start();
        let held = vec![0u8; 16 << 20];
        let mb = counter.stop_mb();
        assert!(mb >= 8.0, "{mb}");
        drop(held);
    }
}
