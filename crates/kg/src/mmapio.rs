//! Minimal in-tree read-only memory mapping, `libc`-free.
//!
//! On x86_64 Linux the file is mapped with raw `mmap`/`munmap` syscalls
//! (`std::arch::asm!`); everywhere else [`Mmap::open`] transparently falls
//! back to reading the file into an 8-byte-aligned heap buffer, so callers
//! get the same `&[u8]` API (just without the zero-copy page sharing).
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE`: the process can never write
//! through it, and writes by other processes to already-CoW'd pages are not
//! observed. The CFKG1 reader validates every section CRC once at open; the
//! documented contract is that the file must not be truncated or rewritten
//! while mapped (standard mmap caveat — see DESIGN.md §13).

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// A read-only byte view of a file, page-mapped where supported.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    /// Kernel mapping; unmapped on drop.
    #[cfg_attr(
        not(all(target_os = "linux", target_arch = "x86_64")),
        allow(dead_code)
    )]
    Mapped,
    /// Heap fallback. `u64` backing guarantees the base pointer is 8-byte
    /// aligned, which the CFKG1 layout relies on for zero-copy casts.
    Heap(#[allow(dead_code)] Vec<u64>),
}

// SAFETY: the view is read-only for its whole lifetime; sharing immutable
// bytes across threads is sound.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `path` read-only. Returns the mapping and whether the zero-copy
    /// kernel path was used (false = heap fallback).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Mmap> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file too large to map",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u64>::dangling().as_ptr() as *const u8,
                len: 0,
                backing: Backing::Heap(Vec::new()),
            });
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            match sys::mmap_readonly(&file, len) {
                Ok(ptr) => {
                    return Ok(Mmap {
                        ptr,
                        len,
                        backing: Backing::Mapped,
                    })
                }
                Err(_) => { /* fall through to the heap path */ }
            }
        }
        Self::read_heap(file, len)
    }

    /// Heap fallback: reads the whole file into a `u64`-backed buffer.
    fn read_heap(mut file: File, len: usize) -> std::io::Result<Mmap> {
        let words = len.div_ceil(8);
        let mut buf: Vec<u64> = vec![0u64; words];
        // SAFETY: the Vec owns `words * 8 >= len` initialized bytes; u64 has
        // no invalid bit patterns, so writing file bytes through the u8 view
        // is sound.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        file.read_exact(bytes)?;
        Ok(Mmap {
            ptr: buf.as_ptr() as *const u8,
            len,
            backing: Backing::Heap(buf),
        })
    }

    /// Whether this view is a kernel mapping (vs the heap fallback).
    pub fn is_kernel_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped)
    }

    /// The mapped bytes. Base pointer is 8-byte aligned (page-aligned for
    /// kernel mappings, `Vec<u64>`-aligned for the fallback).
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe either a live kernel mapping or the heap
        // buffer owned by `self.backing`, both valid for `self`'s lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.len)
            .field("kernel_mapped", &self.is_kernel_mapped())
            .finish()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if matches!(self.backing, Backing::Mapped) {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    /// Populate page tables up front: the store reader touches every byte
    /// immediately (per-section CRC), so eager population trades ~70K minor
    /// faults per GB for one readahead pass inside the syscall.
    const MAP_POPULATE: usize = 0x8000;

    /// Raw 6-argument syscall.
    ///
    /// SAFETY: caller must pass a valid syscall number and arguments; the
    /// kernel ABI clobbers rcx/r11 only (declared below).
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Maps `len` bytes of `file` read-only + private. Returns the base
    /// pointer (page-aligned) or the negated errno.
    pub(super) fn mmap_readonly(file: &File, len: usize) -> Result<*const u8, i32> {
        let fd = file.as_raw_fd();
        // SAFETY: addr=0 lets the kernel choose placement; fd is a live
        // file descriptor; PROT_READ|MAP_PRIVATE cannot corrupt memory.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE | MAP_POPULATE,
                fd as usize,
                0,
            )
        };
        // Errors are returned as -errno in [-4095, -1].
        if (-4095..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as *const u8)
        }
    }

    /// Unmaps a region previously returned by [`mmap_readonly`].
    ///
    /// SAFETY: `ptr`/`len` must describe a live mapping; it must not be used
    /// afterwards.
    pub(super) unsafe fn munmap(ptr: *const u8, len: usize) {
        let _ = syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_check::TempDir;
    use std::io::Write;

    /// A file holding `contents` in a fresh directory (removed on drop).
    fn tmpfile(name: &str, contents: &[u8]) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("kg_mmapio");
        let p = dir.join(name);
        let mut f = File::create(&p).unwrap();
        f.write_all(contents).unwrap();
        (dir, p)
    }

    #[test]
    fn maps_file_contents() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let (_dir, p) = tmpfile("contents", &data);
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&m[..], &data[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(m.is_kernel_mapped());
    }

    #[test]
    fn base_pointer_is_8_aligned() {
        let (_dir, p) = tmpfile("align", &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let m = Mmap::open(&p).unwrap();
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn empty_file_maps_empty() {
        let (_dir, p) = tmpfile("empty", b"");
        let m = Mmap::open(&p).unwrap();
        assert!(m.bytes().is_empty());
    }

    #[test]
    fn heap_fallback_matches() {
        let data = b"heap fallback must see identical bytes".to_vec();
        let (_dir, p) = tmpfile("heap", &data);
        let f = File::open(&p).unwrap();
        let m = Mmap::read_heap(f, data.len()).unwrap();
        assert_eq!(&m[..], &data[..]);
        assert!(!m.is_kernel_mapped());
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/cfkg_mmap_test")).is_err());
    }
}
