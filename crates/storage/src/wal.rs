//! Physical write-ahead log: before-image (undo) logging for crash-safe
//! checkpoints.
//!
//! The engine's consistency unit is the **checkpoint epoch**: between two
//! [`Database::checkpoint`]s every page write-back (eviction or flush)
//! first appends the page's *before-image* — its on-disk content as of
//! the last checkpoint — to a single WAL file shared by all of the
//! database's segments. If the process dies mid-epoch, recovery replays
//! the before-images and the database is back at its last checkpoint
//! exactly; if it dies after the checkpoint's commit point (the atomic
//! catalog rename), the WAL belongs to an already-committed epoch and is
//! discarded. The commit protocol lives in `aim2::persist`; this module
//! is the log itself.
//!
//! File layout:
//!
//! ```text
//! header:  magic "AIM2WAL1" | epoch u32 | page_size u32
//! frame*:  seg_name_len u16 | seg_name | pid u32 | data_len u32 | data
//!          | crc32 u32                     (crc covers seg_name..data)
//! ```
//!
//! Every frame is CRC-checksummed. On recovery, a bad frame at the very
//! tail of the log is a *torn write* from the crash itself — expected,
//! tolerated, and counted in [`Stats`] as `torn_pages_detected` (the
//! page it would have protected was not yet overwritten, by the
//! write-ahead rule). A bad frame **followed by more log** cannot be a
//! crash artifact and surfaces as the typed
//! [`StorageError::ChecksumMismatch`].
//!
//! [`Database::checkpoint`]: ../../aim2/struct.Database.html#method.checkpoint

use crate::error::StorageError;
use crate::faultdisk::FaultInjector;
use crate::stats::Stats;
use crate::tid::PageId;
use crate::Result;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

const WAL_MAGIC: &[u8; 8] = b"AIM2WAL1";
const HEADER_LEN: usize = 16;

/// The conventional WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.aim2";

/// The shared handle every buffer pool (and the transaction layer)
/// holds on the database's single log.
pub type SharedWal = Arc<Mutex<Wal>>;

/// An open write-ahead log (append side).
pub struct Wal {
    file: File,
    path: PathBuf,
    epoch: u32,
    page_size: usize,
    stats: Stats,
    fault: Option<FaultInjector>,
    /// Appends since the last [`Wal::sync`] — lets callers group-flush.
    unsynced: bool,
    /// Monotonic count of appends over the log's lifetime (not reset by
    /// [`Wal::reset`]); the group committer's "how far must be durable"
    /// coordinate.
    appended_seq: u64,
    /// The append sequence number through which the log is known to be
    /// on stable storage.
    synced_seq: u64,
}

impl Wal {
    /// Create (or truncate) the log at `path` for `epoch`.
    pub fn create(
        path: impl AsRef<Path>,
        epoch: u32,
        page_size: usize,
        stats: Stats,
        fault: Option<FaultInjector>,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut wal = Wal {
            file,
            path,
            epoch,
            page_size,
            stats,
            fault,
            unsynced: false,
            appended_seq: 0,
            synced_seq: 0,
        };
        wal.write_header()?;
        Ok(wal)
    }

    fn write_header(&mut self) -> Result<()> {
        let mut h = Vec::with_capacity(HEADER_LEN);
        h.extend_from_slice(WAL_MAGIC);
        h.extend_from_slice(&self.epoch.to_le_bytes());
        h.extend_from_slice(&(self.page_size as u32).to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.raw_write(&h)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The epoch this log protects.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Append one before-image frame: page `pid` of segment file `seg`
    /// held `data` at the last checkpoint. Buffered — call [`Wal::sync`]
    /// before the page write it protects reaches disk.
    pub fn append_before_image(&mut self, seg: &str, pid: PageId, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), self.page_size);
        let _t = self.stats.time_wal_append();
        let mut frame = Vec::with_capacity(2 + seg.len() + 8 + data.len() + 4);
        frame.extend_from_slice(&(seg.len() as u16).to_le_bytes());
        frame.extend_from_slice(seg.as_bytes());
        frame.extend_from_slice(&pid.0.to_le_bytes());
        frame.extend_from_slice(&(data.len() as u32).to_le_bytes());
        frame.extend_from_slice(data);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        self.file.seek(SeekFrom::End(0))?;
        self.raw_write(&frame)?;
        self.unsynced = true;
        self.appended_seq += 1;
        self.stats.inc_wal_append();
        Ok(())
    }

    /// Lifetime append count (the latest append's sequence number).
    pub fn appended_seq(&self) -> u64 {
        self.appended_seq
    }

    /// Sequence number through which appends are durable.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Flush appended frames to stable storage (the write-ahead barrier).
    /// No-op when nothing was appended since the last sync.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced {
            let _t = self.stats.time_wal_fsync();
            self.file.sync_data()?;
            self.unsynced = false;
        }
        self.synced_seq = self.appended_seq;
        Ok(())
    }

    /// Truncate the log and start a new epoch — called right after a
    /// checkpoint commits, making the old before-images unreachable.
    pub fn reset(&mut self, epoch: u32) -> Result<()> {
        self.file.set_len(0)?;
        self.epoch = epoch;
        self.unsynced = false;
        self.synced_seq = self.appended_seq;
        self.write_header()?;
        Ok(())
    }

    /// The log's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write through the fault injector, so the harness can kill or tear
    /// WAL writes exactly like data-page writes.
    fn raw_write(&mut self, bytes: &[u8]) -> Result<()> {
        match &self.fault {
            None => {
                self.file.write_all(bytes)?;
                Ok(())
            }
            Some(inj) => match inj.plan_write(bytes.len())? {
                Some(torn_len) => {
                    self.file.write_all(&bytes[..torn_len])?;
                    let _ = self.file.sync_data();
                    Err(StorageError::Io(std::io::Error::other(
                        "fault injection: WAL write torn, disk stopped",
                    )))
                }
                None => {
                    self.file.write_all(bytes)?;
                    Ok(())
                }
            },
        }
    }
}

/// Leader-based group commit over a [`SharedWal`].
///
/// A committing session appends its log frames (under whatever storage
/// locks it already holds), notes the log's `appended_seq`, and calls
/// [`GroupCommit::sync_through`]. The first arrival becomes the *leader*
/// and issues one physical sync covering **every** append made so far —
/// including commits that piled up behind it; the others ride the batch
/// and return without touching the disk. One fsync thus makes many
/// commits durable: `wal_appends` grows per commit, the
/// `group_commit_batches` counter only per physical sync.
pub struct GroupCommit {
    state: Mutex<GcState>,
    cv: Condvar,
    stats: Stats,
}

struct GcState {
    /// A leader is currently inside `Wal::sync`.
    syncing: bool,
}

impl GroupCommit {
    /// A fresh group committer reporting into `stats`.
    pub fn new(stats: Stats) -> GroupCommit {
        GroupCommit {
            state: Mutex::new(GcState { syncing: false }),
            cv: Condvar::new(),
            stats,
        }
    }

    /// Block until append sequence number `seq` is durable, batching the
    /// physical sync with every other commit that reached the log first.
    pub fn sync_through(&self, wal: &SharedWal, seq: u64) -> Result<()> {
        loop {
            if wal.lock().unwrap().synced_seq() >= seq {
                return Ok(()); // rode an earlier leader's batch
            }
            {
                let st = self.state.lock().unwrap();
                if st.syncing {
                    // A leader is at work; wait for its batch, then
                    // re-check whether it covered us.
                    let _guard = self.cv.wait(st).unwrap();
                    continue;
                }
            }
            let mut st = self.state.lock().unwrap();
            if st.syncing {
                continue; // lost the election race, wait again
            }
            st.syncing = true;
            drop(st);
            // Leader: one sync covers every append made up to now, not
            // just our own `seq`.
            let res = {
                let mut w = wal.lock().unwrap();
                if w.synced_seq() >= seq {
                    Ok(())
                } else {
                    let r = w.sync();
                    if r.is_ok() {
                        self.stats.inc_group_commit_batch();
                    }
                    r
                }
            };
            let mut st = self.state.lock().unwrap();
            st.syncing = false;
            self.cv.notify_all();
            drop(st);
            return res;
        }
    }
}

/// One decoded before-image frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Segment file name the page belongs to.
    pub seg: String,
    /// The page within that segment.
    pub pid: PageId,
    /// The page's content at the last checkpoint.
    pub data: Vec<u8>,
}

/// Everything recovery needs from an on-disk WAL.
#[derive(Debug)]
pub struct WalContents {
    /// The epoch the log was protecting.
    pub epoch: u32,
    /// Page size recorded at log creation.
    pub page_size: usize,
    /// All intact frames, in append order.
    pub frames: Vec<WalFrame>,
    /// Whether a torn frame was found (and tolerated) at the tail.
    pub torn_tail: bool,
}

/// Read and validate a WAL file for recovery.
///
/// Returns `Ok(None)` if the file does not exist or its header is
/// incomplete/invalid — the latter only happens when the crash hit the
/// instant of log creation or [`Wal::reset`], both of which occur while
/// no un-checkpointed page write has reached disk, so skipping replay is
/// safe. A checksum failure *inside* the log (more frames follow) is the
/// typed [`StorageError::ChecksumMismatch`].
pub fn read_wal(path: impl AsRef<Path>, stats: &Stats) -> Result<Option<WalContents>> {
    let mut file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    if buf.len() < HEADER_LEN || &buf[..8] != WAL_MAGIC {
        // Crash during create/reset: header never made it. No frame can
        // exist, so there is nothing to replay.
        return Ok(None);
    }
    let epoch = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let page_size = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let mut frames = Vec::new();
    let mut torn_tail = false;
    let mut pos = HEADER_LEN;
    while pos < buf.len() {
        match decode_frame(&buf[pos..]) {
            FrameParse::Ok { frame, consumed } => {
                frames.push(frame);
                pos += consumed;
            }
            FrameParse::Truncated => {
                // The frame runs past end-of-file: the crash tore the
                // tail append. Expected; the protected page write never
                // happened (write-ahead rule), so dropping it is safe.
                stats.inc_torn_page_detected();
                torn_tail = true;
                break;
            }
            FrameParse::BadCrc { consumed } => {
                stats.inc_torn_page_detected();
                if pos + consumed >= buf.len() {
                    // Complete-length tail frame with bad bytes: a torn
                    // in-place write of the final append. Same reasoning
                    // as Truncated.
                    torn_tail = true;
                    break;
                }
                // Corruption in the middle of the log — a crash only
                // ever damages the tail, so this is real corruption and
                // must not be silently skipped.
                return Err(StorageError::ChecksumMismatch(format!(
                    "WAL frame at byte {pos} failed CRC with {} bytes of log after it",
                    buf.len() - pos - consumed
                )));
            }
        }
    }
    Ok(Some(WalContents {
        epoch,
        page_size,
        frames,
        torn_tail,
    }))
}

enum FrameParse {
    Ok { frame: WalFrame, consumed: usize },
    Truncated,
    BadCrc { consumed: usize },
}

fn decode_frame(b: &[u8]) -> FrameParse {
    let Some(seg_len) = b
        .get(..2)
        .map(|s| u16::from_le_bytes(s.try_into().unwrap()) as usize)
    else {
        return FrameParse::Truncated;
    };
    let Some(seg_bytes) = b.get(2..2 + seg_len) else {
        return FrameParse::Truncated;
    };
    let p = 2 + seg_len;
    let Some(head) = b.get(p..p + 8) else {
        return FrameParse::Truncated;
    };
    let pid = u32::from_le_bytes(head[..4].try_into().unwrap());
    let data_len = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
    let body_end = p + 8 + data_len;
    let Some(data) = b.get(p + 8..body_end) else {
        return FrameParse::Truncated;
    };
    let Some(crc_bytes) = b.get(body_end..body_end + 4) else {
        return FrameParse::Truncated;
    };
    let consumed = body_end + 4;
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(&b[..body_end]) != stored {
        return FrameParse::BadCrc { consumed };
    }
    let Ok(seg) = std::str::from_utf8(seg_bytes) else {
        return FrameParse::BadCrc { consumed };
    };
    FrameParse::Ok {
        frame: WalFrame {
            seg: seg.to_string(),
            pid: PageId(pid),
            data: data.to_vec(),
        },
        consumed,
    }
}

/// CRC-32 (IEEE 802.3, reflected), table-driven, eight bytes per step
/// ("slicing-by-8"): `tables[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold into the running value
/// through eight independent lookups instead of a chain of eight
/// dependent ones. Every page fetch, WAL frame, wire frame and cold
/// block decode pays for this function once per byte.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aim2_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length around the eight-byte step agrees with the
        // bit-at-a-time definition.
        let bitwise = |data: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn append_sync_read_roundtrip() {
        let path = tmp("roundtrip.wal");
        let stats = Stats::new();
        let mut wal = Wal::create(&path, 3, 64, stats.clone(), None).unwrap();
        wal.append_before_image("a.seg", PageId(5), &[1u8; 64])
            .unwrap();
        wal.append_before_image("b.seg", PageId(0), &[2u8; 64])
            .unwrap();
        wal.sync().unwrap();
        assert_eq!(stats.wal_appends(), 2);
        let c = read_wal(&path, &stats).unwrap().unwrap();
        assert_eq!(c.epoch, 3);
        assert_eq!(c.page_size, 64);
        assert!(!c.torn_tail);
        assert_eq!(
            c.frames,
            vec![
                WalFrame {
                    seg: "a.seg".into(),
                    pid: PageId(5),
                    data: vec![1u8; 64]
                },
                WalFrame {
                    seg: "b.seg".into(),
                    pid: PageId(0),
                    data: vec![2u8; 64]
                },
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_truncates_and_bumps_epoch() {
        let path = tmp("reset.wal");
        let stats = Stats::new();
        let mut wal = Wal::create(&path, 1, 32, stats.clone(), None).unwrap();
        wal.append_before_image("x.seg", PageId(1), &[9u8; 32])
            .unwrap();
        wal.sync().unwrap();
        wal.reset(2).unwrap();
        let c = read_wal(&path, &stats).unwrap().unwrap();
        assert_eq!(c.epoch, 2);
        assert!(c.frames.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_counted() {
        let path = tmp("torn_tail.wal");
        let stats = Stats::new();
        let mut wal = Wal::create(&path, 1, 32, stats.clone(), None).unwrap();
        wal.append_before_image("x.seg", PageId(1), &[9u8; 32])
            .unwrap();
        wal.append_before_image("x.seg", PageId(2), &[8u8; 32])
            .unwrap();
        wal.sync().unwrap();
        // Tear the last frame: chop 5 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        let c = read_wal(&path, &stats).unwrap().unwrap();
        assert!(c.torn_tail);
        assert_eq!(c.frames.len(), 1, "intact first frame survives");
        assert_eq!(stats.torn_pages_detected(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let path = tmp("midlog.wal");
        let stats = Stats::new();
        let mut wal = Wal::create(&path, 1, 32, stats.clone(), None).unwrap();
        wal.append_before_image("x.seg", PageId(1), &[9u8; 32])
            .unwrap();
        wal.append_before_image("x.seg", PageId(2), &[8u8; 32])
            .unwrap();
        wal.sync().unwrap();
        // Flip a data byte inside the FIRST frame (not the tail).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal(&path, &stats) {
            Err(StorageError::ChecksumMismatch(_)) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_syncs() {
        let path = tmp("group_commit.wal");
        let stats = Stats::new();
        let wal: SharedWal = Arc::new(Mutex::new(
            Wal::create(&path, 1, 32, stats.clone(), None).unwrap(),
        ));
        let gc = Arc::new(GroupCommit::new(stats.clone()));
        // 8 committers append one frame each, then ask for durability.
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let wal = wal.clone();
            let gc = gc.clone();
            handles.push(std::thread::spawn(move || {
                let seq = {
                    let mut w = wal.lock().unwrap();
                    w.append_before_image("t.seg", PageId(i), &[i as u8; 32])
                        .unwrap();
                    w.appended_seq()
                };
                gc.sync_through(&wal, seq).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.wal_appends(), 8);
        let batches = stats.group_commit_batches();
        assert!(
            (1..=8).contains(&batches),
            "8 commits need 1..=8 physical syncs, got {batches}"
        );
        assert!(wal.lock().unwrap().synced_seq() >= 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_and_headerless_file_mean_no_replay() {
        let stats = Stats::new();
        assert!(read_wal(tmp("nonexistent.wal"), &stats).unwrap().is_none());
        let path = tmp("short.wal");
        std::fs::write(&path, b"AIM2").unwrap();
        assert!(read_wal(&path, &stats).unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
