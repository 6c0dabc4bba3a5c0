//! [`DirLock`]: a PID-stamped lock file guarding a table directory.
//!
//! Two processes opening the same table directory would interleave WAL
//! appends and snapshot renames and corrupt both views of the data, so
//! [`crate::DurableRelation`] acquires a `LOCK` file on create/open and
//! releases it on drop. The file holds the owner's PID in ASCII; a lock
//! whose owner is provably dead is considered **stale** and silently
//! reclaimed — a `kill -9` must not brick the table forever. Liveness is
//! probed via `/proc/<pid>` on Linux and a `kill(pid, 0)`-style signal-0
//! probe on other Unixes (so non-Linux builds neither treat every lock
//! as permanently held nor reclaim live ones). When liveness cannot be
//! determined at all (non-Unix, no procfs), the lock is treated as held:
//! refusing spuriously is safer than double-opening.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::{io_err, PersistError, Result};

/// Lock file name inside a table directory.
pub const LOCK_FILE: &str = "LOCK";

/// An exclusive hold on one table directory, released on drop.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

/// `kill(pid, 0)` liveness probe: signal 0 performs permission and
/// existence checks without delivering anything. `ESRCH` = no such
/// process; success or `EPERM` = the process exists.
#[cfg(unix)]
fn kill_probe(pid: u32) -> Option<bool> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if pid == 0 || pid > i32::MAX as u32 {
        // 0 would signal our own process group; beyond i32 would turn
        // negative (a process-group kill). Neither is a real PID written
        // by `DirLock::acquire` — provably not a live single process.
        return Some(false);
    }
    const ESRCH: i32 = 3;
    // SAFETY: signal 0 delivers nothing; `kill` is async-signal-safe and
    // has no preconditions beyond a valid libc linkage.
    let rc = unsafe { kill(pid as i32, 0) };
    if rc == 0 {
        Some(true)
    } else {
        match std::io::Error::last_os_error().raw_os_error() {
            Some(ESRCH) => Some(false),
            _ => Some(true), // EPERM and friends: the process exists
        }
    }
}

/// Best-effort liveness test for a PID. `None` = cannot tell.
fn pid_alive(pid: u32) -> Option<bool> {
    #[cfg(target_os = "linux")]
    if Path::new("/proc/self").exists() {
        return Some(Path::new(&format!("/proc/{pid}")).exists());
    }
    #[cfg(unix)]
    return kill_probe(pid);
    #[cfg(not(unix))]
    {
        let _ = pid;
        None // undecidable: treat the lock as held
    }
}

impl DirLock {
    /// Acquire the lock for `dir`, creating the directory if needed.
    /// Fails with [`PersistError::Locked`] if another live process (or
    /// this one, through another handle) already holds it; a stale lock
    /// left by a dead process is reclaimed.
    pub fn acquire(dir: &Path) -> Result<DirLock> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let path = dir.join(LOCK_FILE);
        for attempt in 0..2 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    // Write our PID so a later claimant can test liveness.
                    write!(file, "{}", std::process::id()).map_err(|e| io_err(&path, e))?;
                    file.sync_all().map_err(|e| io_err(&path, e))?;
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder: Option<u32> =
                        std::fs::read_to_string(&path).ok().and_then(|s| s.trim().parse().ok());
                    let stale = match holder {
                        // Unreadable/garbled owner: assume held (safe side).
                        None => false,
                        Some(pid) if pid == std::process::id() => false,
                        Some(pid) => matches!(pid_alive(pid), Some(false)),
                    };
                    if stale && attempt == 0 {
                        // Reclaim via rename-then-delete so two claimants
                        // racing on the same stale file cannot BOTH win:
                        // exactly one rename succeeds, and the loser never
                        // deletes the winner's freshly created lock.
                        let tomb = dir.join(format!("{LOCK_FILE}.stale.{}", std::process::id()));
                        if std::fs::rename(&path, &tomb).is_ok() {
                            let _ = std::fs::remove_file(&tomb);
                        }
                        continue; // retry create_new; losers see AlreadyExists
                    }
                    return Err(PersistError::Locked { path, pid: holder.unwrap_or(0) });
                }
                Err(e) => return Err(io_err(&path, e)),
            }
        }
        Err(PersistError::Locked { path, pid: 0 })
    }

    /// The lock file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("evofd_persist_lock_tests_{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn acquire_conflict_release_cycle() {
        let dir = tmpdir("cycle");
        let lock = DirLock::acquire(&dir).unwrap();
        assert!(lock.path().exists());
        // A second claim from the same (live) process is refused.
        let err = DirLock::acquire(&dir).unwrap_err();
        assert!(matches!(err, PersistError::Locked { .. }), "{err:?}");
        assert!(err.to_string().contains("locked"), "{err}");
        drop(lock);
        // Released on drop: the directory is claimable again.
        let lock = DirLock::acquire(&dir).unwrap();
        assert!(lock.path().exists());
    }

    #[test]
    fn stale_lock_from_dead_pid_is_reclaimed() {
        // Works on every Unix now: /proc on Linux, kill(pid, 0) elsewhere.
        if cfg!(unix) {
            let dir = tmpdir("stale");
            std::fs::create_dir_all(&dir).unwrap();
            // PIDs near u32::MAX exceed any real pid_max: provably dead.
            std::fs::write(dir.join(LOCK_FILE), "4294967294").unwrap();
            let lock = DirLock::acquire(&dir).unwrap();
            assert!(lock.path().exists());
        }
    }

    #[cfg(unix)]
    #[test]
    fn kill_probe_classifies_live_and_dead_pids() {
        assert_eq!(kill_probe(std::process::id()), Some(true), "we are alive");
        assert_eq!(kill_probe(1), Some(true), "init exists (EPERM still means alive)");
        assert_eq!(kill_probe(4294967294), Some(false), "beyond pid space");
        assert_eq!(kill_probe(0), Some(false), "never a lock owner");
        // A live lock owned by another live process stays held.
        let dir = tmpdir("kill_probe_held");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_FILE), "1").unwrap();
        assert!(matches!(DirLock::acquire(&dir), Err(PersistError::Locked { .. })));
    }

    #[test]
    fn garbled_lock_file_is_treated_as_held() {
        let dir = tmpdir("garbled");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        assert!(matches!(DirLock::acquire(&dir), Err(PersistError::Locked { .. })));
    }
}
