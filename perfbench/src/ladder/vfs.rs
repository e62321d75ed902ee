//! A counting `Vfs`: the real filesystem, with every sync and every
//! written byte tallied. Handed to `PagedRepo::bulk_load_with` so the
//! store's device traffic per delta is counted from outside.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strudel_repo::vfs::{RealVfs, Vfs, VfsFile, VfsRandomFile};

/// Totals since creation.
#[derive(Debug, Default)]
pub struct IoCounts {
    /// `sync` calls on files plus `sync_dir` calls.
    pub syncs: AtomicU64,
    /// Bytes handed to `write` / `write_at`.
    pub bytes: AtomicU64,
}

impl IoCounts {
    /// `(syncs, bytes)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.syncs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// [`RealVfs`] with counters.
#[derive(Debug, Default)]
pub struct CountingVfs {
    /// The tallies, shared with every file this VFS opened.
    pub counts: Arc<IoCounts>,
}

#[derive(Debug)]
struct CountedFile(Box<dyn VfsFile>, Arc<IoCounts>);

impl VfsFile for CountedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        self.1.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.0.write(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.1.syncs.fetch_add(1, Ordering::Relaxed);
        self.0.sync()
    }
}

#[derive(Debug)]
struct CountedRandomFile(Box<dyn VfsRandomFile>, Arc<IoCounts>);

impl VfsRandomFile for CountedRandomFile {
    fn read_at(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.0.read_at(buf, offset)
    }
    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.1.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.0.write_at(buf, offset)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.1.syncs.fetch_add(1, Ordering::Relaxed);
        self.0.sync()
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountedFile(
            RealVfs.create(path)?,
            self.counts.clone(),
        )))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountedFile(
            RealVfs.open_append(path)?,
            self.counts.clone(),
        )))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsRandomFile>> {
        Ok(Box::new(CountedRandomFile(
            RealVfs.open_rw(path)?,
            self.counts.clone(),
        )))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        RealVfs.len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        RealVfs.set_len(path, len)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        RealVfs.sync_dir(path)
    }
}
