//! In-memory storage for the serving workloads' journals, snapshots and
//! spill files, passed to the server as `ServeConfig::vfs`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use tpgnn_obs::vfs::{Vfs, VfsCause, VfsError, VfsFile};

/// Journal and spill storage kept in memory, for workloads that should
/// measure the serving code rather than a shared machine's disk (whose fsync
/// latency swings with other tenants' I/O, and where every fsync'd append
/// costs milliseconds of discard when the file is unlinked). All file
/// contents go to one append-only byte log, reserved up front, so the
/// store costs exactly its size in resident memory and hardly touches the
/// allocator; files are lists of log ranges.
#[derive(Debug)]
pub struct MemVfs {
    store: Arc<Mutex<MemStore>>,
}

/// Address space reserved for one server's store; pages count towards the
/// resident size only once written.
const MEM_STORE_RESERVE: usize = 1 << 30;

/// Logs of dropped stores, emptied but with their pages still resident. A
/// new store takes one, so a measured pass writes to memory the warm-up
/// already touched instead of faulting in fresh pages, whose cost on a
/// virtual machine swings with the host's memory state.
static SPARE_LOGS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

impl Default for MemVfs {
    fn default() -> Self {
        let spare = SPARE_LOGS.lock().ok().and_then(|mut s| s.pop());
        let store = MemStore {
            log: spare.unwrap_or_else(|| Vec::with_capacity(MEM_STORE_RESERVE)),
            files: BTreeMap::new(),
        };
        Self {
            store: Arc::new(Mutex::new(store)),
        }
    }
}

#[derive(Debug)]
struct MemStore {
    log: Vec<u8>,
    files: BTreeMap<PathBuf, Vec<Range<usize>>>,
}

impl Drop for MemStore {
    fn drop(&mut self) {
        let mut log = std::mem::take(&mut self.log);
        log.clear();
        if let Ok(mut spare) = SPARE_LOGS.lock() {
            spare.push(log);
        }
    }
}

impl MemStore {
    fn add(&mut self, bytes: &[u8]) -> Range<usize> {
        let start = self.log.len();
        self.log.extend_from_slice(bytes);
        start..self.log.len()
    }
}

struct MemFile {
    store: Arc<Mutex<MemStore>>,
    path: PathBuf,
}

fn lock(store: &Mutex<MemStore>) -> std::sync::MutexGuard<'_, MemStore> {
    store
        .lock()
        .expect("no thread panics while holding the in-memory store")
}

fn not_found(op: &'static str, path: &Path) -> VfsError {
    let cause = VfsCause::Os(
        std::io::ErrorKind::NotFound,
        "no such in-memory file".into(),
    );
    VfsError {
        op,
        path: path.to_path_buf(),
        cause,
    }
}

impl VfsFile for MemFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        let mut store = lock(&self.store);
        let range = store.add(buf);
        store
            .files
            .entry(self.path.clone())
            .or_default()
            .push(range);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        lock(&self.store)
            .files
            .entry(path.to_path_buf())
            .or_default();
        let store = Arc::clone(&self.store);
        Ok(Box::new(MemFile {
            store,
            path: path.to_path_buf(),
        }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let mut store = lock(&self.store);
        let range = store.add(bytes);
        store.files.insert(path.to_path_buf(), vec![range]);
        Ok(())
    }

    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.write(path, bytes)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        let store = lock(&self.store);
        let ranges = store
            .files
            .get(path)
            .ok_or_else(|| not_found("read", path))?;
        Ok(ranges
            .iter()
            .flat_map(|r| &store.log[r.clone()])
            .copied()
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        let mut store = lock(&self.store);
        let ranges = store
            .files
            .remove(from)
            .ok_or_else(|| not_found("rename", from))?;
        store.files.insert(to.to_path_buf(), ranges);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        let removed = lock(&self.store).files.remove(path);
        removed.map(|_| ()).ok_or_else(|| not_found("remove", path))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        let store = lock(&self.store);
        Ok(store
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect())
    }

    fn create_dir_all(&self, _dir: &Path) -> Result<(), VfsError> {
        Ok(())
    }
}
