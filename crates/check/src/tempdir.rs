//! Unique scratch directories for tests that touch the filesystem.
//!
//! `cargo test` runs the tests of one binary on parallel threads of one
//! process, so a path keyed only on the process id is shared by all of
//! them and they clobber each other's files. [`TempDir::new`] adds a
//! process-wide counter, so every call gets a directory of its own.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An empty directory under [`std::env::temp_dir`], named
/// `cf_<tag>_<pid>_<n>` with `n` unique within the process, and removed
/// with its contents on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory; `tag` names the test or suite for humans.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        // Relaxed: the counter only has to hand out distinct values.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("cf_{tag}_{}_{n}", std::process::id()));
        // A leftover from an earlier process with the same pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create temp dir {}: {e}", path.display()));
        TempDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_call_gets_its_own_directory_removed_on_drop() {
        let a = TempDir::new("tempdir_test");
        let b = TempDir::new("tempdir_test");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.join("f"), b"x").expect("write into temp dir");
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "drop must remove the directory");
        assert!(b.path().is_dir());
    }
}
