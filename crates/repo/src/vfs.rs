//! Filesystem abstraction behind the durable store: its image and WAL.
//!
//! All durable I/O in this crate goes through the [`Vfs`] trait so the
//! crash-torture harness can swap the real filesystem for a deterministic
//! [`FaultVfs`] that fails, tears, or short-reads the Nth operation. The
//! production implementation is [`RealVfs`]; both are `Send + Sync` so a
//! `PagedRepo` holding an `Arc<dyn Vfs>` stays shareable.
//!
//! The fault model is a *process* crash, not media corruption: an
//! operation that returned `Ok` is visible in the file afterwards, the
//! faulted operation itself is either absent ([`FaultMode::Fail`]) or a
//! strict prefix ([`FaultMode::Partial`]), and — when armed as a crash —
//! every subsequent operation fails as well, because a crashed process
//! issues no more I/O.

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open file handle: sequential writes plus an explicit sync.
pub trait VfsFile: Send + Sync + Debug {
    /// Writes all of `buf` (or fails having written a prefix).
    fn write(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Forces written data to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// A file open for random access: positioned reads and writes plus an
/// explicit sync. Offsets past the current end extend the file. No store
/// code opens one since the page file went; it stays while the benchmark
/// harness implements it.
pub trait VfsRandomFile: Send + Sync + Debug {
    /// Reads up to `buf.len()` bytes at `offset`, returning how many were
    /// read (fewer only at end-of-file — or under an injected short read,
    /// which page checksums must catch).
    fn read_at(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize>;
    /// Writes all of `buf` at `offset` (or fails having written a prefix).
    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Forces written data to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations the storage layer needs.
pub trait Vfs: Send + Sync + Debug {
    /// Creates (truncating) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing `path` for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens `path` for random-access reads and writes, creating it when
    /// missing (never truncating); see [`VfsRandomFile`].
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsRandomFile>>;
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The file's length in bytes, from metadata (never fault-injected:
    /// recovery uses it to detect short reads).
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates `path` to `len` bytes.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Syncs a directory, making renames within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

#[derive(Debug)]
struct RealFile(File);

impl VfsFile for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

#[derive(Debug)]
struct RealRandomFile(File);

impl VfsRandomFile for RealRandomFile {
    fn read_at(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.0.seek(SeekFrom::Start(offset))?;
        let mut total = 0;
        while total < buf.len() {
            let n = self.0.read(&mut buf[total..])?;
            if n == 0 {
                break; // end of file
            }
            total += n;
        }
        Ok(total)
    }
    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(
            OpenOptions::new().append(true).open(path)?,
        )))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsRandomFile>> {
        Ok(Box::new(RealRandomFile(
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?,
        )))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory handles aren't openable everywhere; best-effort open,
        // but a failing fsync on an opened handle is a real error.
        match File::open(path) {
            Ok(f) => f.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

/// What an injected fault does to the operation it lands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails outright with no effect on the file.
    Fail,
    /// A write persists only its first `n` bytes (a torn write, clamped to
    /// a strict prefix) and then fails; a read silently returns `n` fewer
    /// bytes than the file holds (a short read, at least one byte
    /// dropped); any other operation fails outright.
    Partial(usize),
}

#[derive(Debug)]
struct FaultState {
    ops: u64,
    arm_at: Option<u64>,
    mode: FaultMode,
    /// When true (a crash), every operation after the fault fails too.
    halt_after_fault: bool,
    fired: bool,
}

/// A deterministic fault-injecting [`Vfs`] over the real filesystem.
///
/// Every gated operation (write, sync, read, rename, set_len, remove,
/// create, open, sync_dir) increments an operation counter; arming the
/// vfs at counter value `k` makes the `k`-th operation fault. The two arm
/// flavors differ in what happens *after* the fault: [`FaultVfs::arm_crash`]
/// simulates a process crash (all later operations fail until rearmed),
/// [`FaultVfs::arm_fault`] simulates one transient I/O error (later
/// operations succeed). Tests derive `k` and the [`FaultMode`] from
/// `strudel-prng` seeds, so every torture schedule is reproducible.
#[derive(Clone, Debug)]
pub struct FaultVfs {
    inner: RealVfs,
    state: Arc<Mutex<FaultState>>,
}

impl Default for FaultVfs {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<FaultState>>,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// Consumes one operation slot: `Ok(None)` to proceed normally,
/// `Ok(Some(mode))` when this operation is the armed fault.
fn gate(state: &Arc<Mutex<FaultState>>, what: &str) -> io::Result<Option<FaultMode>> {
    let mut s = state.lock().unwrap();
    if s.fired && s.halt_after_fault {
        return Err(injected("process crashed"));
    }
    let op = s.ops;
    s.ops += 1;
    if s.arm_at == Some(op) {
        s.fired = true;
        if matches!(s.mode, FaultMode::Partial(_)) && (what == "write" || what == "read") {
            return Ok(Some(s.mode));
        }
        return Err(injected(what));
    }
    Ok(None)
}

impl VfsFile for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        match gate(&self.state, "write")? {
            None => self.inner.write(buf),
            Some(FaultMode::Fail) => unreachable!("gate returns Err for Fail"),
            Some(FaultMode::Partial(n)) => {
                // A torn write is a strict prefix: a fully persisted write
                // that merely failed to report is indistinguishable from a
                // committed one, which would break the shadow oracle.
                let keep = n.min(buf.len().saturating_sub(1));
                self.inner.write(&buf[..keep])?;
                Err(injected("torn write"))
            }
        }
    }
    fn sync(&mut self) -> io::Result<()> {
        match gate(&self.state, "sync")? {
            None => self.inner.sync(),
            Some(_) => Err(injected("sync")),
        }
    }
}

#[derive(Debug)]
struct FaultRandomFile {
    inner: Box<dyn VfsRandomFile>,
    state: Arc<Mutex<FaultState>>,
}

impl VfsRandomFile for FaultRandomFile {
    fn read_at(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        match gate(&self.state, "read")? {
            None => self.inner.read_at(buf, offset),
            Some(FaultMode::Fail) => unreachable!("gate returns Err for Fail"),
            Some(FaultMode::Partial(n)) => {
                // A silent short read, like Vfs::read: at least one byte is
                // dropped and the caller must notice via the page checksum.
                let got = self.inner.read_at(buf, offset)?;
                Ok(got.saturating_sub(n.max(1)))
            }
        }
    }
    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        match gate(&self.state, "write")? {
            None => self.inner.write_at(buf, offset),
            Some(FaultMode::Fail) => unreachable!("gate returns Err for Fail"),
            Some(FaultMode::Partial(n)) => {
                // Torn page write: a strict prefix lands, then the error.
                let keep = n.min(buf.len().saturating_sub(1));
                self.inner.write_at(&buf[..keep], offset)?;
                Err(injected("torn page write"))
            }
        }
    }
    fn sync(&mut self) -> io::Result<()> {
        match gate(&self.state, "sync")? {
            None => self.inner.sync(),
            Some(_) => Err(injected("sync")),
        }
    }
}

impl FaultVfs {
    /// A fault vfs with nothing armed: counts operations, injects nothing.
    pub fn new() -> Self {
        FaultVfs {
            inner: RealVfs,
            state: Arc::new(Mutex::new(FaultState {
                ops: 0,
                arm_at: None,
                mode: FaultMode::Fail,
                halt_after_fault: true,
                fired: false,
            })),
        }
    }

    /// Arms a crash: operation number `at` (0-based) faults with `mode`,
    /// and every operation after it fails too.
    pub fn arm_crash(&self, at: u64, mode: FaultMode) {
        self.arm(at, mode, true);
    }

    /// Arms one transient fault: operation `at` faults with `mode`, later
    /// operations proceed normally.
    pub fn arm_fault(&self, at: u64, mode: FaultMode) {
        self.arm(at, mode, false);
    }

    fn arm(&self, at: u64, mode: FaultMode, halt: bool) {
        let mut s = self.state.lock().unwrap();
        s.arm_at = Some(at);
        s.mode = mode;
        s.halt_after_fault = halt;
        s.fired = false;
    }

    /// Disarms any pending or fired fault; the counter keeps running.
    pub fn disarm(&self) {
        let mut s = self.state.lock().unwrap();
        s.arm_at = None;
        s.fired = false;
    }

    /// How many gated operations have been issued so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.state.lock().unwrap().fired
    }

    fn file(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        })
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match gate(&self.state, "create")? {
            None => Ok(self.file(self.inner.create(path)?)),
            Some(_) => Err(injected("create")),
        }
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match gate(&self.state, "open_append")? {
            None => Ok(self.file(self.inner.open_append(path)?)),
            Some(_) => Err(injected("open_append")),
        }
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsRandomFile>> {
        match gate(&self.state, "open_rw")? {
            None => Ok(Box::new(FaultRandomFile {
                inner: self.inner.open_rw(path)?,
                state: Arc::clone(&self.state),
            })),
            Some(_) => Err(injected("open_rw")),
        }
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match gate(&self.state, "read")? {
            None => self.inner.read(path),
            Some(FaultMode::Fail) => unreachable!("gate returns Err for Fail"),
            Some(FaultMode::Partial(n)) => {
                let mut bytes = self.inner.read(path)?;
                let keep = bytes.len().saturating_sub(n.max(1));
                bytes.truncate(keep);
                Ok(bytes) // silent: the caller must notice via Vfs::len
            }
        }
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path) // metadata: never faulted
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match gate(&self.state, "rename")? {
            None => self.inner.rename(from, to),
            Some(_) => Err(injected("rename")),
        }
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        match gate(&self.state, "set_len")? {
            None => self.inner.set_len(path, len),
            Some(_) => Err(injected("set_len")),
        }
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match gate(&self.state, "remove_file")? {
            None => self.inner.remove_file(path),
            Some(_) => Err(injected("remove_file")),
        }
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path) // setup, not a durability boundary
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match gate(&self.state, "sync_dir")? {
            None => self.inner.sync_dir(path),
            Some(_) => Err(injected("sync_dir")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("strudel-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_vfs_round_trip() {
        let dir = tmpdir("real");
        let path = dir.join("f");
        let v = RealVfs;
        let mut f = v.create(&path).unwrap();
        f.write(b"hello ").unwrap();
        f.write(b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(v.read(&path).unwrap(), b"hello world");
        assert_eq!(v.len(&path).unwrap(), 11);
        let mut f = v.open_append(&path).unwrap();
        f.write(b"!").unwrap();
        drop(f);
        assert_eq!(v.read(&path).unwrap(), b"hello world!");
        v.set_len(&path, 5).unwrap();
        assert_eq!(v.read(&path).unwrap(), b"hello");
        let moved = dir.join("g");
        v.rename(&path, &moved).unwrap();
        assert!(!v.exists(&path));
        assert!(v.exists(&moved));
        v.sync_dir(&dir).unwrap();
        v.remove_file(&moved).unwrap();
        assert!(!v.exists(&moved));
    }

    #[test]
    fn crash_fault_fires_at_exact_op_and_halts() {
        let dir = tmpdir("crash");
        let v = FaultVfs::new();
        // op 0: create, op 1: write (faulted), then everything fails.
        v.arm_crash(1, FaultMode::Fail);
        let mut f = v.create(&dir.join("f")).unwrap();
        assert!(f.write(b"x").is_err());
        assert!(v.fired());
        assert!(f.write(b"y").is_err(), "halted after crash");
        assert!(v.create(&dir.join("g")).is_err(), "halted after crash");
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"");
    }

    #[test]
    fn torn_write_keeps_strict_prefix() {
        let dir = tmpdir("torn");
        let v = FaultVfs::new();
        v.arm_fault(1, FaultMode::Partial(4));
        let mut f = v.create(&dir.join("f")).unwrap();
        assert!(f.write(b"abcdefgh").is_err());
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"abcd");
        // Transient fault: later ops succeed.
        f.write(b"rest").unwrap();
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"abcdrest");
    }

    #[test]
    fn torn_write_never_completes_fully() {
        let dir = tmpdir("torn-clamp");
        let v = FaultVfs::new();
        v.arm_fault(1, FaultMode::Partial(1000));
        let mut f = v.create(&dir.join("f")).unwrap();
        assert!(f.write(b"abc").is_err());
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"ab");
    }

    #[test]
    fn short_read_is_silent_but_len_tells_the_truth() {
        let dir = tmpdir("short");
        let path = dir.join("f");
        std::fs::write(&path, b"0123456789").unwrap();
        let v = FaultVfs::new();
        v.arm_fault(0, FaultMode::Partial(3));
        let bytes = v.read(&path).unwrap();
        assert_eq!(bytes, b"0123456");
        assert_eq!(v.len(&path).unwrap(), 10, "metadata reveals the loss");
    }

    #[test]
    fn random_file_reads_and_writes_at_offsets() {
        let dir = tmpdir("rand");
        let path = dir.join("pages");
        let v = RealVfs;
        let mut f = v.open_rw(&path).unwrap();
        f.write_at(b"bbbb", 4).unwrap();
        f.write_at(b"aaaa", 0).unwrap();
        f.sync().unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read_at(&mut buf, 4).unwrap(), 4);
        assert_eq!(&buf, b"bbbb");
        // Reading past the end is a short read, not an error.
        assert_eq!(f.read_at(&mut buf, 8).unwrap(), 0);
        // Reopening never truncates.
        drop(f);
        let mut f = v.open_rw(&path).unwrap();
        assert_eq!(f.read_at(&mut buf, 0).unwrap(), 4);
        assert_eq!(&buf, b"aaaa");
    }

    #[test]
    fn faulted_page_write_tears_into_a_prefix() {
        let dir = tmpdir("rand-torn");
        let v = FaultVfs::new();
        let mut f = v.open_rw(&dir.join("pages")).unwrap();
        f.write_at(b"01234567", 0).unwrap();
        v.arm_fault(v.op_count(), FaultMode::Partial(3));
        assert!(f.write_at(b"abcdefgh", 0).is_err());
        // Prefix of the new write landed; the old tail survives.
        assert_eq!(std::fs::read(dir.join("pages")).unwrap(), b"abc34567");
    }

    #[test]
    fn faulted_page_read_is_silently_short() {
        let dir = tmpdir("rand-short");
        let v = FaultVfs::new();
        let mut f = v.open_rw(&dir.join("pages")).unwrap();
        f.write_at(b"0123456789", 0).unwrap();
        v.arm_fault(v.op_count(), FaultMode::Partial(4));
        let mut buf = [0u8; 10];
        assert_eq!(f.read_at(&mut buf, 0).unwrap(), 6);
    }

    #[test]
    fn op_counting_and_disarm() {
        let dir = tmpdir("count");
        let v = FaultVfs::new();
        let mut f = v.create(&dir.join("f")).unwrap();
        f.write(b"a").unwrap();
        f.sync().unwrap();
        assert_eq!(v.op_count(), 3);
        v.arm_crash(3, FaultMode::Fail);
        assert!(f.write(b"b").is_err());
        v.disarm();
        f.write(b"c").unwrap();
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"ac");
    }
}
