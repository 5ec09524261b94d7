//! Minimal in-tree read-only memory mapping, `libc`-free.
//!
//! On x86_64 Linux the file is mapped with raw `mmap`/`munmap` syscalls
//! (`std::arch::asm!`); everywhere else [`Mmap::open`] transparently falls
//! back to reading the file into an 8-byte-aligned heap buffer, so callers
//! get the same `&[u8]` API (just without the zero-copy page sharing).
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE` and is not populated up front:
//! a page enters the process's resident set when it is first read (the
//! kernel maps a small window around each faulting page from the page
//! cache). [`Mmap::release`] drops a range from the resident set again; its
//! bytes stay in the shared page cache, and a later read faults them back
//! in from the file. The process can never write through the mapping, so it
//! never holds a private copy of a page. The CFKG1 and CFCI1 readers
//! validate every section CRC once at open. `read_store` copies the facts
//! out and drops its mapping before it returns; for the chain index, which
//! stays mapped, the documented contract is that the file must not be
//! truncated or rewritten while mapped, which also covers pages faulted back
//! in after a release (standard mmap caveat — see DESIGN.md §13.2).

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
    /// aligned, which the readers' validated slice casts rely on.
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

    /// Drops the whole pages inside `range` from the process's resident
    /// set (`madvise(MADV_DONTNEED)` on the page-aligned interior; a page
    /// the range covers only in part stays). The bytes do not change: the
    /// mapping is read-only and private, so no page was ever copied, and a
    /// later read faults the page back in from the file. On the heap
    /// fallback this does nothing.
    ///
    /// # Panics
    /// If `range` is not inside the mapping.
    pub fn release(&self, range: std::ops::Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "release range {range:?} outside a {}-byte mapping",
            self.len
        );
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if matches!(self.backing, Backing::Mapped) {
            let start = range.start.next_multiple_of(sys::PAGE);
            let end = range.end / sys::PAGE * sys::PAGE;
            if start < end {
                // SAFETY: [start, end) lies inside the live mapping; it is
                // read-only and private, so dropping its pages loses no
                // data and every later read sees the file's bytes again.
                unsafe { sys::dontneed(self.ptr.add(start), end - start) };
            }
        }
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
    const SYS_MADVISE: usize = 28;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_DONTNEED: usize = 4;
    /// The x86-64 base page size; the mapping base is aligned to it.
    pub(super) const PAGE: usize = 4096;

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
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
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

    /// Drops the pages of `[ptr, ptr + len)` from the resident set. It can
    /// only fail on a bad range, and a failed release changes nothing, so
    /// the result is ignored.
    ///
    /// SAFETY: `ptr` must be page-aligned and `[ptr, ptr + len)` inside a
    /// live read-only private file mapping.
    pub(super) unsafe fn dontneed(ptr: *const u8, len: usize) {
        let _ = syscall6(SYS_MADVISE, ptr as usize, len, MADV_DONTNEED, 0, 0, 0);
    }
}

/// Resident kB of this process's mapping that holds `addr`: the `Rss:`
/// line of its `/proc/self/smaps` entry, or `None` where there is no such
/// entry (no mapping there, or not Linux). Tests and benches read it to
/// see what a mapped file keeps resident.
pub fn mapping_rss_kb(addr: *const u8) -> Option<u64> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let addr = addr as usize;
    let mut inside = false;
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = first.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                inside = (lo..hi).contains(&addr);
                continue;
            }
        }
        if let Some(kb) = line.strip_prefix("Rss:").filter(|_| inside) {
            return kb.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
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

    /// A released range reads back the same bytes; on a kernel mapping its
    /// whole pages leave the resident set and the two partial end pages
    /// stay. The heap fallback ignores a release.
    #[test]
    fn release_keeps_the_bytes() {
        let data: Vec<u8> = (0..64 * 4096 + 123).map(|i| (i * 7 % 251) as u8).collect();
        let (_dir, p) = tmpfile("release", &data);
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&m[..], &data[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        let touched = mapping_rss_kb(m.as_ptr());
        m.release(100..m.len() - 100);
        m.release(0..0);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            let (touched, released) = (touched.unwrap(), mapping_rss_kb(m.as_ptr()).unwrap());
            assert!(touched >= 64 * 4, "read every page, {touched} kB resident");
            assert!(released <= 8, "{released} kB resident after the release");
        }
        assert_eq!(&m[..], &data[..]);

        let heap = Mmap::read_heap(File::open(&p).unwrap(), data.len()).unwrap();
        let base = heap.as_ptr();
        heap.release(0..heap.len());
        assert!(!heap.is_kernel_mapped());
        assert_eq!(heap.as_ptr(), base);
        assert_eq!(&heap[..], &data[..]);
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/cfkg_mmap_test")).is_err());
    }
}
