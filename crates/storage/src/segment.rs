//! Segments: the record (subtuple) manager.
//!
//! A segment is an extent of slotted pages behind the buffer pool. Its
//! records are the paper's *subtuples* — "the basic storage unit, like a
//! tuple or a record in traditional database systems" (§4.1). The segment
//! offers two API levels:
//!
//! * a **heap API** ([`Segment::insert`] / [`Segment::read`] /
//!   [`Segment::update`] / [`Segment::delete`] / [`Segment::for_each`])
//!   addressing records by [`Tid`], with transparent *forwarding*: a
//!   record that outgrows its page moves, leaving a forward pointer at
//!   its home slot so the TID stays valid — flat 1NF tables and the Lorie
//!   baseline use this level;
//! * a **low-level record API** (`rec_*`) addressing `(PageId, SlotNo)`
//!   directly, used by the complex-object manager, which does its own
//!   (Mini-TID-relative) forwarding so that object pages stay
//!   position-independent and can be moved wholesale (§4.1).
//!
//! Every record carries a 1-byte flag: `INLINE` data, `FWD` (payload is
//! the forward address), or `BODY` (the forward target, skipped by
//! scans so no record is seen twice).

use crate::buffer::BufferPool;
use crate::error::StorageError;
use crate::page::{Page, PageRef};
use crate::stats::Stats;
use crate::tid::{MiniTid, PageId, SlotNo, Tid};
use crate::Result;

/// Record flag: plain record (whole payload inline).
pub const REC_INLINE: u8 = 0x00;
/// Record flag: forward pointer; payload is the TID of the record's
/// overflow chain. Keeps TIDs stable when a record outgrows its page.
pub const REC_FWD: u8 = 0x01;
/// Record flag: overflow record — `[next: Tid or sentinel][data]`;
/// skipped by scans (reached only via its home record). Serves both as
/// forward target and as long-record continuation.
pub const REC_OVFL: u8 = 0x02;
/// Record flag: chunked home record — `[next: Tid][first chunk]`; a
/// record longer than one page starts here and continues in `REC_OVFL`
/// records. Yielded by scans at its home TID.
pub const REC_HEAD: u8 = 0x03;
/// Record flag: *local* forward pointer — payload is a Mini-TID resolved
/// against the owning object's page list (§4.1); the object manager
/// resolves these, never the segment.
pub const REC_FWD_LOCAL: u8 = 0x04;
/// Record flag: local overflow record — `[next: MiniTid or sentinel][data]`.
pub const REC_OVFL_LOCAL: u8 = 0x05;
/// Record flag: local chunked home record — `[next: MiniTid][first chunk]`.
pub const REC_HEAD_LOCAL: u8 = 0x06;

/// Sentinel TID terminating an overflow chain.
pub const TID_SENTINEL: Tid = Tid {
    page: PageId(u32::MAX),
    slot: SlotNo(u16::MAX),
};

/// Sentinel Mini-TID terminating a local overflow chain.
pub const MINITID_SENTINEL: MiniTid = MiniTid {
    lpage: u16::MAX,
    slot: SlotNo(u16::MAX),
};

/// A segment of pages holding records.
pub struct Segment {
    pool: BufferPool,
    /// Cached free-space estimate per page (updated on every op touching
    /// the page) — a simple free-space inventory.
    free: Vec<u16>,
    /// Rotating start position for free-space searches, so repeated
    /// inserts don't rescan known-full pages from the beginning.
    alloc_cursor: usize,
    stats: Stats,
}

impl Segment {
    /// Create a segment over a buffer pool.
    pub fn new(pool: BufferPool) -> Segment {
        let stats = pool.stats().clone();
        let n = pool.num_pages() as usize;
        let mut seg = Segment {
            pool,
            free: vec![0; n],
            alloc_cursor: 0,
            stats,
        };
        // For a reopened disk, lazily refresh estimates on first touch;
        // start pessimistic (0 free) except that unknown pages are probed
        // in `find_space` below.
        for i in 0..n {
            seg.free[i] = u16::MAX; // unknown — probe before use
        }
        seg
    }

    /// Page size.
    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u32 {
        self.pool.num_pages()
    }

    /// Shared statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Access the underlying buffer pool (benches flush/clear it).
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Allocate a fresh page and return its id.
    pub fn allocate_page(&mut self) -> Result<PageId> {
        let pid = self.pool.allocate_page()?;
        self.pool.with_page_mut(pid, |buf| {
            Page::init(buf);
        })?;
        let free = self.probe_free(pid)?;
        if pid.0 as usize >= self.free.len() {
            self.free.resize(pid.0 as usize + 1, u16::MAX);
        }
        self.free[pid.0 as usize] = free;
        Ok(pid)
    }

    fn probe_free(&mut self, pid: PageId) -> Result<u16> {
        // The cast is safe: free space never exceeds the page size, which
        // is in u16 range for our page sizes.
        self.pool
            .with_page(pid, |buf| PageRef::new(buf).free_for_insert() as u16)
    }

    fn set_free_from_page(free: &mut Vec<u16>, pid: PageId, page: &Page<'_>) {
        let idx = pid.0 as usize;
        if idx >= free.len() {
            free.resize(idx + 1, u16::MAX);
        }
        free[idx] = page.free_for_insert() as u16;
    }

    // -----------------------------------------------------------------
    // Low-level record API (used by the object manager)
    // -----------------------------------------------------------------

    /// Try to insert `(flag, payload)` as a record into page `pid`.
    /// Returns the slot on success, `None` if the page lacks space.
    pub fn rec_insert_in(
        &mut self,
        pid: PageId,
        flag: u8,
        payload: &[u8],
    ) -> Result<Option<SlotNo>> {
        let mut rec = Vec::with_capacity(payload.len() + 1);
        rec.push(flag);
        rec.extend_from_slice(payload);
        let free = &mut self.free;
        let slot = self.pool.with_page_mut(pid, |buf| {
            let mut page = Page::new(buf);
            let s = page.insert(&rec);
            Self::set_free_from_page(free, pid, &page);
            s
        })?;
        if slot.is_some() {
            self.stats.inc_subtuple_write();
        }
        Ok(slot)
    }

    /// Read the raw `(flag, payload)` record at `(pid, slot)`.
    pub fn rec_read(&mut self, pid: PageId, slot: SlotNo) -> Result<(u8, Vec<u8>)> {
        self.stats.inc_subtuple_read();
        let rec = self
            .pool
            .with_page(pid, |buf| PageRef::new(buf).read(slot).map(|r| r.to_vec()))?;
        match rec {
            Some(r) if !r.is_empty() => Ok((r[0], r[1..].to_vec())),
            Some(_) => Err(StorageError::Corrupt("empty record (missing flag)".into())),
            None => Err(StorageError::BadTid(Tid::new(pid, slot))),
        }
    }

    /// Update the record at `(pid, slot)` in place; false if it no longer
    /// fits this page (record unchanged).
    pub fn rec_update(
        &mut self,
        pid: PageId,
        slot: SlotNo,
        flag: u8,
        payload: &[u8],
    ) -> Result<bool> {
        let mut rec = Vec::with_capacity(payload.len() + 1);
        rec.push(flag);
        rec.extend_from_slice(payload);
        let free = &mut self.free;
        let ok = self.pool.with_page_mut(pid, |buf| {
            let mut page = Page::new(buf);
            let ok = page.update(slot, &rec);
            Self::set_free_from_page(free, pid, &page);
            ok
        })?;
        if ok {
            self.stats.inc_subtuple_write();
        }
        Ok(ok)
    }

    /// Delete the record at `(pid, slot)`.
    pub fn rec_delete(&mut self, pid: PageId, slot: SlotNo) -> Result<()> {
        let free = &mut self.free;
        let ok = self.pool.with_page_mut(pid, |buf| {
            let mut page = Page::new(buf);
            let ok = page.delete(slot);
            Self::set_free_from_page(free, pid, &page);
            ok
        })?;
        if ok {
            Ok(())
        } else {
            Err(StorageError::BadTid(Tid::new(pid, slot)))
        }
    }

    /// Free-space estimate for inserting into `pid`.
    pub fn page_free(&mut self, pid: PageId) -> Result<usize> {
        let idx = pid.0 as usize;
        if idx >= self.free.len() || self.free[idx] == u16::MAX {
            let f = self.probe_free(pid)?;
            if idx >= self.free.len() {
                self.free.resize(idx + 1, u16::MAX);
            }
            self.free[idx] = f;
        }
        Ok(self.free[pid.0 as usize] as usize)
    }

    /// Raw copy of a whole page (object move uses this).
    pub fn copy_page_raw(&mut self, from: PageId, to: PageId) -> Result<()> {
        let data = self.pool.with_page(from, |b| b.to_vec())?;
        self.pool.with_page_mut(to, |b| b.copy_from_slice(&data))?;
        let f = self.probe_free(to)?;
        self.free[to.0 as usize] = f;
        Ok(())
    }

    /// Find (or allocate) a page with at least `need` free bytes,
    /// excluding pages for which `exclude` returns true.
    pub fn find_space(&mut self, need: usize, exclude: impl Fn(PageId) -> bool) -> Result<PageId> {
        let n = self.free.len();
        for step in 0..n {
            let i = (self.alloc_cursor + step) % n;
            let pid = PageId(i as u32);
            if exclude(pid) {
                continue;
            }
            // A page that fails its checksum offers no space: placement
            // routes around rot instead of failing every insert on it.
            let f = match self.page_free(pid) {
                Err(StorageError::CorruptPage { .. }) => continue,
                f => f?,
            };
            if f > need {
                self.alloc_cursor = i;
                return Ok(pid);
            }
        }
        let max = Page::max_record_len(self.page_size()) - 1;
        if need > max {
            return Err(StorageError::RecordTooLarge { len: need, max });
        }
        let pid = self.allocate_page()?;
        self.alloc_cursor = pid.0 as usize;
        Ok(pid)
    }
    // -----------------------------------------------------------------
    // Heap API (TID-addressed; forwarding + overflow chains)
    // -----------------------------------------------------------------

    /// Largest payload storable as a single record.
    pub fn max_single(&self) -> usize {
        Page::max_record_len(self.page_size()) - 1
    }

    /// Largest data chunk per overflow record (`[next Tid][data]`).
    fn max_chunk(&self) -> usize {
        self.max_single() - Tid::ENCODED_LEN
    }

    /// Store `data` as a chain of `REC_OVFL` records (any length);
    /// returns the head of the chain.
    fn store_ovfl_chain(&mut self, data: &[u8], exclude_page: Option<PageId>) -> Result<Tid> {
        let chunk = self.max_chunk();
        let mut next = TID_SENTINEL;
        // Store back-to-front so each chunk knows its successor.
        let mut chunks: Vec<&[u8]> = data.chunks(chunk).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        for piece in chunks.iter().rev() {
            let mut payload = Vec::with_capacity(Tid::ENCODED_LEN + piece.len());
            next.encode(&mut payload);
            payload.extend_from_slice(piece);
            let mut pid = self.find_space(payload.len(), |p| Some(p) == exclude_page)?;
            let slot = match self.rec_insert_in(pid, REC_OVFL, &payload)? {
                Some(s) => s,
                None => {
                    // Free-space estimate raced with slot overhead: take a
                    // fresh page, where the chunk fits by construction.
                    pid = self.allocate_page()?;
                    self.rec_insert_in(pid, REC_OVFL, &payload)?.ok_or(
                        StorageError::RecordTooLarge {
                            len: payload.len(),
                            max: self.max_single(),
                        },
                    )?
                }
            };
            next = Tid::new(pid, slot);
        }
        Ok(next)
    }

    /// Read an overflow chain starting at `head` into `out`.
    fn read_ovfl_chain(&mut self, head: Tid, out: &mut Vec<u8>) -> Result<()> {
        let mut cur = head;
        loop {
            let (flag, payload) = self.rec_read(cur.page, cur.slot)?;
            if flag != REC_OVFL {
                return Err(StorageError::Corrupt(format!(
                    "overflow chain hit flag {flag}"
                )));
            }
            let mut pos = 0;
            let next = Tid::decode(&payload, &mut pos)
                .ok_or_else(|| StorageError::Corrupt("truncated overflow header".into()))?;
            let body = payload.get(pos..).ok_or_else(|| {
                StorageError::CorruptData("overflow record shorter than its header".into())
            })?;
            out.extend_from_slice(body);
            if next == TID_SENTINEL {
                return Ok(());
            }
            cur = next;
        }
    }

    /// Delete an overflow chain starting at `head`.
    fn free_ovfl_chain(&mut self, head: Tid) -> Result<()> {
        let mut cur = head;
        loop {
            let (flag, payload) = self.rec_read(cur.page, cur.slot)?;
            if flag != REC_OVFL {
                return Err(StorageError::Corrupt(format!(
                    "overflow chain hit flag {flag}"
                )));
            }
            self.rec_delete(cur.page, cur.slot)?;
            let mut pos = 0;
            let next = Tid::decode(&payload, &mut pos)
                .ok_or_else(|| StorageError::Corrupt("truncated overflow header".into()))?;
            if next == TID_SENTINEL {
                return Ok(());
            }
            cur = next;
        }
    }

    /// Insert a record of any length, preferring page `near` when given
    /// and fitting. Returns its permanent TID.
    pub fn insert(&mut self, data: &[u8], near: Option<PageId>) -> Result<Tid> {
        if data.len() <= self.max_single() {
            if let Some(pid) = near {
                match self.rec_insert_in(pid, REC_INLINE, data) {
                    Ok(Some(slot)) => return Ok(Tid::new(pid, slot)),
                    // Full, or rotten: place the record elsewhere.
                    Ok(None) | Err(StorageError::CorruptPage { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            let pid = self.find_space(data.len(), |_| false)?;
            if let Some(slot) = self.rec_insert_in(pid, REC_INLINE, data)? {
                return Ok(Tid::new(pid, slot));
            }
            let pid = self.allocate_page()?;
            let slot =
                self.rec_insert_in(pid, REC_INLINE, data)?
                    .ok_or(StorageError::RecordTooLarge {
                        len: data.len(),
                        max: self.max_single(),
                    })?;
            return Ok(Tid::new(pid, slot));
        }
        // Long record: head chunk + overflow chain.
        let chunk = self.max_chunk();
        let tail = self.store_ovfl_chain(&data[chunk..], None)?;
        let mut payload = Vec::with_capacity(Tid::ENCODED_LEN + chunk);
        tail.encode(&mut payload);
        payload.extend_from_slice(&data[..chunk]);
        let pid = match near {
            Some(p) if self.page_free(p)? > payload.len() => p,
            _ => self.find_space(payload.len(), |_| false)?,
        };
        if let Some(slot) = self.rec_insert_in(pid, REC_HEAD, &payload)? {
            return Ok(Tid::new(pid, slot));
        }
        let pid = self.allocate_page()?;
        let slot =
            self.rec_insert_in(pid, REC_HEAD, &payload)?
                .ok_or(StorageError::RecordTooLarge {
                    len: payload.len(),
                    max: self.max_single(),
                })?;
        Ok(Tid::new(pid, slot))
    }

    /// Read the record at `tid`, whatever its physical layout.
    pub fn read(&mut self, tid: Tid) -> Result<Vec<u8>> {
        let (flag, payload) = self.rec_read(tid.page, tid.slot)?;
        match flag {
            REC_INLINE => Ok(payload),
            REC_FWD => {
                let mut pos = 0;
                let target = Tid::decode(&payload, &mut pos)
                    .ok_or_else(|| StorageError::Corrupt("bad forward pointer".into()))?;
                let mut out = Vec::new();
                self.read_ovfl_chain(target, &mut out)?;
                Ok(out)
            }
            REC_HEAD => {
                let mut pos = 0;
                let next = Tid::decode(&payload, &mut pos)
                    .ok_or_else(|| StorageError::Corrupt("bad head header".into()))?;
                let mut out = payload
                    .get(pos..)
                    .ok_or_else(|| {
                        StorageError::CorruptData("head record shorter than its header".into())
                    })?
                    .to_vec();
                if next != TID_SENTINEL {
                    self.read_ovfl_chain(next, &mut out)?;
                }
                Ok(out)
            }
            REC_OVFL => Err(StorageError::BadTid(tid)),
            other => Err(StorageError::Corrupt(format!("unexpected flag {other}"))),
        }
    }

    /// Update the record at `tid` with `data` of any length; the TID
    /// stays valid.
    pub fn update(&mut self, tid: Tid, data: &[u8]) -> Result<()> {
        // Free any old out-of-home storage first.
        let (flag, payload) = self.rec_read(tid.page, tid.slot)?;
        match flag {
            REC_INLINE => {}
            REC_FWD | REC_HEAD => {
                let mut pos = 0;
                let next = Tid::decode(&payload, &mut pos)
                    .ok_or_else(|| StorageError::Corrupt("bad chain header".into()))?;
                if next != TID_SENTINEL {
                    self.free_ovfl_chain(next)?;
                }
            }
            REC_OVFL => return Err(StorageError::BadTid(tid)),
            other => return Err(StorageError::Corrupt(format!("unexpected flag {other}"))),
        }
        // Try to store the new value inline at home.
        if data.len() <= self.max_single()
            && self.rec_update(tid.page, tid.slot, REC_INLINE, data)?
        {
            return Ok(());
        }
        // Move the value to an overflow chain; home becomes a forward
        // pointer (7 bytes — fits wherever the old record was, except in
        // the pathological full-page-and-tiny-record corner, which
        // surfaces as a Corrupt error).
        let target = self.store_ovfl_chain(data, Some(tid.page))?;
        let mut fwd = Vec::with_capacity(Tid::ENCODED_LEN);
        target.encode(&mut fwd);
        if !self.rec_update(tid.page, tid.slot, REC_FWD, &fwd)? {
            return Err(StorageError::Corrupt(
                "page too full to place a forward pointer".into(),
            ));
        }
        Ok(())
    }

    /// Delete the record at `tid` (including any overflow chain).
    pub fn delete(&mut self, tid: Tid) -> Result<()> {
        let (flag, payload) = self.rec_read(tid.page, tid.slot)?;
        match flag {
            REC_INLINE => {}
            REC_FWD | REC_HEAD => {
                let mut pos = 0;
                let next = Tid::decode(&payload, &mut pos)
                    .ok_or_else(|| StorageError::Corrupt("bad chain header".into()))?;
                if next != TID_SENTINEL {
                    self.free_ovfl_chain(next)?;
                }
            }
            REC_OVFL => return Err(StorageError::BadTid(tid)),
            other => return Err(StorageError::Corrupt(format!("unexpected flag {other}"))),
        }
        self.rec_delete(tid.page, tid.slot)
    }

    /// Visit every live record as `(home TID, bytes)`. Records are
    /// yielded at their *home* TID; overflow records are skipped, so each
    /// record is seen exactly once.
    pub fn for_each(&mut self, mut f: impl FnMut(Tid, &[u8])) -> Result<()> {
        for p in 0..self.num_pages() {
            let pid = PageId(p);
            let recs: Vec<(SlotNo, u8)> = self.pool.with_page(pid, |buf| {
                PageRef::new(buf)
                    .live_records()
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(s, r)| (s, r[0]))
                    .collect()
            })?;
            for (slot, flag) in recs {
                match flag {
                    REC_INLINE | REC_FWD | REC_HEAD => {
                        let body = self.read(Tid::new(pid, slot))?;
                        f(Tid::new(pid, slot), &body);
                    }
                    REC_OVFL => {} // reached via its home record
                    // Local-pointer records live in object pages, which
                    // are never heap-scanned; seeing one here is a bug.
                    other => {
                        return Err(StorageError::Corrupt(format!(
                            "heap scan hit object-local flag {other}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn seg(page_size: usize, frames: usize) -> Segment {
        Segment::new(BufferPool::new(
            Box::new(MemDisk::new(page_size)),
            frames,
            Stats::new(),
        ))
    }

    #[test]
    fn insert_read_many_records_across_pages() {
        let mut s = seg(256, 8);
        let mut tids = Vec::new();
        for i in 0..100u32 {
            let data = vec![(i % 251) as u8; 40];
            tids.push((s.insert(&data, None).unwrap(), data));
        }
        assert!(s.num_pages() > 1, "must have spilled to multiple pages");
        for (tid, data) in &tids {
            assert_eq!(&s.read(*tid).unwrap(), data);
        }
    }

    #[test]
    fn near_hint_clusters() {
        let mut s = seg(512, 8);
        let t0 = s.insert(b"anchor", None).unwrap();
        let t1 = s.insert(b"follows", Some(t0.page)).unwrap();
        assert_eq!(t0.page, t1.page);
    }

    #[test]
    fn update_in_place() {
        let mut s = seg(256, 4);
        let tid = s.insert(b"hello world", None).unwrap();
        s.update(tid, b"hi").unwrap();
        assert_eq!(s.read(tid).unwrap(), b"hi");
    }

    #[test]
    fn update_grow_forwards_and_tid_stays_valid() {
        let mut s = seg(128, 8);
        // Fill the first page so growth cannot stay local.
        let tid = s.insert(&[1u8; 30], None).unwrap();
        while s
            .rec_insert_in(tid.page, REC_INLINE, &[2u8; 24])
            .unwrap()
            .is_some()
        {}
        let big = vec![9u8; 80];
        s.update(tid, &big).unwrap();
        assert_eq!(s.read(tid).unwrap(), big, "TID still reaches the record");
        // Update again while forwarded (shrink → back inline if it fits,
        // or stays forwarded; either way the TID answers).
        s.update(tid, b"tiny").unwrap();
        assert_eq!(s.read(tid).unwrap(), b"tiny");
        // Grow again while forwarded — no chains may form.
        let big2 = vec![7u8; 90];
        s.update(tid, &big2).unwrap();
        assert_eq!(s.read(tid).unwrap(), big2);
    }

    #[test]
    fn long_records_span_pages() {
        let mut s = seg(128, 8);
        // Far larger than one 128-byte page.
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let tid = s.insert(&data, None).unwrap();
        assert_eq!(s.read(tid).unwrap(), data);
        assert!(s.num_pages() >= 8, "chunks spread over pages");
        // Update long → longer.
        let data2: Vec<u8> = (0..2000u32).map(|i| (i % 13) as u8).collect();
        s.update(tid, &data2).unwrap();
        assert_eq!(s.read(tid).unwrap(), data2);
        // Update long → short (chain freed, record back inline).
        s.update(tid, b"short").unwrap();
        assert_eq!(s.read(tid).unwrap(), b"short");
        // All overflow records were freed: scan sees exactly one record.
        let mut n = 0;
        s.for_each(|_, r| {
            assert_eq!(r, b"short");
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn long_record_delete_frees_whole_chain() {
        let mut s = seg(128, 8);
        let data = vec![5u8; 1500];
        let tid = s.insert(&data, None).unwrap();
        s.delete(tid).unwrap();
        assert!(matches!(s.read(tid), Err(StorageError::BadTid(_))));
        let mut n = 0;
        s.for_each(|_, _| n += 1).unwrap();
        assert_eq!(n, 0, "no residue");
    }

    #[test]
    fn delete_removes_record_and_forward_body() {
        let mut s = seg(128, 8);
        let tid = s.insert(&[1u8; 30], None).unwrap();
        while s
            .rec_insert_in(tid.page, REC_INLINE, &[2u8; 24])
            .unwrap()
            .is_some()
        {}
        s.update(tid, &[9u8; 80]).unwrap(); // forwarded
        s.delete(tid).unwrap();
        assert!(matches!(s.read(tid), Err(StorageError::BadTid(_))));
        // The overflow record must be gone too: a scan sees only fillers.
        let mut seen = 0;
        s.for_each(|_, r| {
            assert_eq!(r, &[2u8; 24][..]);
            seen += 1;
        })
        .unwrap();
        assert!(seen > 0);
    }

    #[test]
    fn scan_sees_each_record_once_at_home_tid() {
        let mut s = seg(128, 8);
        let tid = s.insert(&[1u8; 30], None).unwrap();
        while s
            .rec_insert_in(tid.page, REC_INLINE, &[2u8; 24])
            .unwrap()
            .is_some()
        {}
        let big = vec![9u8; 80];
        s.update(tid, &big).unwrap(); // forwarded to another page
        let mut hits = Vec::new();
        s.for_each(|t, r| {
            if r == &big[..] {
                hits.push(t);
            }
        })
        .unwrap();
        assert_eq!(hits, vec![tid], "exactly once, at the home TID");
    }

    #[test]
    fn scan_sees_long_records_once_with_full_body() {
        let mut s = seg(128, 8);
        let long = vec![3u8; 700];
        let tid = s.insert(&long, None).unwrap();
        s.insert(b"small", None).unwrap();
        let mut seen = Vec::new();
        s.for_each(|t, r| seen.push((t, r.len()))).unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&(tid, 700)));
    }

    #[test]
    fn reading_an_overflow_tid_directly_is_rejected() {
        let mut s = seg(128, 8);
        let tid = s.insert(&vec![1u8; 700], None).unwrap();
        // Find some overflow record and try to read it as a home TID.
        let mut ovfl: Option<Tid> = None;
        for p in 0..s.num_pages() {
            let pid = PageId(p);
            let found = s
                .pool_mut()
                .with_page(pid, |buf| {
                    PageRef::new(buf)
                        .live_records()
                        .find(|(_, r)| r.first() == Some(&REC_OVFL))
                        .map(|(slot, _)| Tid::new(pid, slot))
                })
                .unwrap();
            if let Some(t) = found {
                ovfl = Some(t);
                break;
            }
        }
        let ovfl = ovfl.expect("long record must have overflow parts");
        assert_ne!(ovfl, tid);
        assert!(matches!(s.read(ovfl), Err(StorageError::BadTid(_))));
    }

    #[test]
    fn read_deleted_is_bad_tid() {
        let mut s = seg(256, 4);
        let tid = s.insert(b"x", None).unwrap();
        s.delete(tid).unwrap();
        assert!(matches!(s.read(tid), Err(StorageError::BadTid(_))));
        assert!(matches!(s.delete(tid), Err(StorageError::BadTid(_))));
    }

    #[test]
    fn stats_count_subtuple_traffic() {
        let mut s = seg(256, 4);
        let before = s.stats().snapshot();
        let tid = s.insert(b"abc", None).unwrap();
        s.read(tid).unwrap();
        let after = s.stats().snapshot();
        let d = before.delta(&after);
        assert_eq!(d.subtuple_writes, 1);
        assert!(d.subtuple_reads >= 1);
    }

    #[test]
    fn works_with_tiny_buffer_pool() {
        // One frame: every page switch is an eviction; correctness must
        // not depend on pool size.
        let mut s = seg(128, 1);
        let mut tids = Vec::new();
        for i in 0..50u8 {
            tids.push((s.insert(&[i; 20], None).unwrap(), i));
        }
        for (tid, i) in tids {
            assert_eq!(s.read(tid).unwrap(), vec![i; 20]);
        }
    }

    #[test]
    fn empty_record_roundtrip() {
        let mut s = seg(256, 4);
        let tid = s.insert(b"", None).unwrap();
        assert_eq!(s.read(tid).unwrap(), Vec::<u8>::new());
        s.update(tid, b"now bigger").unwrap();
        assert_eq!(s.read(tid).unwrap(), b"now bigger");
    }
}
