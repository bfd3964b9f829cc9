//! Test support shared by the crate's test modules: a device that
//! parks one request until the test releases it, so a test can hold a
//! caller at a chosen device request and order the others around it.

use rae_blockdev::BlockDevice;
use rae_vfs::FsResult;
use std::sync::{mpsc, Arc, Mutex};

/// What a [`ParkDisk`] parks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Park {
    Read,
    Flush,
}

/// What a [`ParkDisk`] parks next, the signal that it parked and the
/// receiver of its release.
type Armed = Option<(Park, mpsc::Sender<()>, mpsc::Receiver<()>)>;

/// Forwards every request to `inner`; once armed, parks the first read
/// or flush until released.
pub(crate) struct ParkDisk {
    inner: Arc<dyn BlockDevice>,
    armed: Mutex<Armed>,
}

impl ParkDisk {
    pub(crate) fn new(inner: Arc<dyn BlockDevice>) -> Arc<ParkDisk> {
        Arc::new(ParkDisk {
            inner,
            armed: Mutex::new(None),
        })
    }

    /// Park the next `what`: returns the signal that it parked and the
    /// sender that releases it.
    pub(crate) fn arm(&self, what: Park) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        *self.armed.lock().unwrap() = Some((what, parked_tx, release_rx));
        (parked_rx, release_tx)
    }

    fn park(&self, what: Park) {
        let armed = self
            .armed
            .lock()
            .unwrap()
            .take_if(|(armed, ..)| *armed == what);
        if let Some((_, parked, release)) = armed {
            parked.send(()).unwrap();
            // bounded, so that a test failing while a request is parked
            // ends instead of hanging
            let _ = release.recv_timeout(std::time::Duration::from_secs(10));
        }
    }
}

impl BlockDevice for ParkDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.park(Park::Read);
        self.inner.read_block(bno, buf)
    }
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        self.park(Park::Read);
        self.inner.read_blocks(start, bufs)
    }
    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        self.inner.write_block(bno, buf)
    }
    fn write_blocks(&self, extents: &[rae_blockdev::Extent<'_>]) -> FsResult<()> {
        self.inner.write_blocks(extents)
    }
    fn flush(&self) -> FsResult<()> {
        self.park(Park::Flush);
        self.inner.flush()
    }
}

/// Wait for `what` to park.
pub(crate) fn parked(signal: &mpsc::Receiver<()>, what: &str) {
    signal
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} never parked"));
}
