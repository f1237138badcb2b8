//! Columnar cold-store blocks for flat (1NF) tables.
//!
//! The paper's "integrated view on flat tables and hierarchies" keeps
//! flat tables in the same segment machinery as complex objects; this
//! module adds the modern conclusion of that integration: cold flat
//! rows are frozen into immutable **columnar blocks** while hot rows
//! (and all NF² data) stay in slotted-page heaps.
//!
//! One block is one segment record (the record manager's overflow
//! chains make the payload size irrelevant), so blocks ride the
//! existing buffer pool, WAL-safe eviction and checkpoint paths with
//! zero new I/O machinery. Inside the record:
//!
//! * every column is **dictionary-encoded**: the distinct atoms in
//!   first-occurrence order, then one `u32` code per row;
//! * every column carries a **zone map** (min/max atom), duplicated in
//!   the catalog's [`ColdBlockMeta`] so scans can skip a block without
//!   touching its pages at all;
//! * the header is **CRC-guarded** independently of the page-level
//!   checksums — a flipped bit inside a block is detected even when the
//!   surrounding page still verifies (e.g. after an in-memory flip).

use crate::tid::Tid;
use crate::wal::crc32;
use crate::{Result, StorageError};
use aim2_model::encode::{decode_atom, encode_atom};
use aim2_model::{Atom, Tuple, Value};

/// First bytes of every encoded block.
pub const BLOCK_MAGIC: [u8; 4] = *b"A2CB";
/// Encoding version.
pub const BLOCK_VERSION: u8 = 1;
/// Rows per block a freeze aims for (the batch protocol's natural
/// batch size).
pub const BLOCK_ROWS: usize = 1024;

/// High bit of a packed `u64` row key marking a cold (block-resident)
/// row. Heap TIDs pack into 48 bits ([`Tid::to_u64`]), so the two key
/// spaces are disjoint.
pub const COLD_KEY_BIT: u64 = 1 << 63;

/// Pack a cold row address `(block ordinal, row within block)` into an
/// opaque cursor key.
pub fn cold_key(block: usize, row: u32) -> u64 {
    COLD_KEY_BIT | ((block as u64) << 32) | row as u64
}

/// Inverse of [`cold_key`]; `None` for heap keys.
pub fn split_cold_key(key: u64) -> Option<(usize, u32)> {
    if key & COLD_KEY_BIT == 0 {
        return None;
    }
    let k = key & !COLD_KEY_BIT;
    Some(((k >> 32) as usize, (k & 0xFFFF_FFFF) as u32))
}

/// Per-column `(min, max)` zone maps for one block.
pub type BlockZones = Vec<(Atom, Atom)>;

/// Catalog-resident description of one frozen block: where it lives,
/// how many rows it holds, and the per-column zone maps that let a scan
/// prune it before any decode.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdBlockMeta {
    /// Home TID of the block record in the table's segment.
    pub tid: Tid,
    /// Rows frozen into the block.
    pub rows: u32,
    /// Per-column `(min, max)` over the block's values.
    pub zones: BlockZones,
}

/// One decoded column: the dictionary in first-occurrence order and one
/// code per row.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedColumn {
    pub dict: Vec<Atom>,
    pub codes: Vec<u32>,
}

impl DecodedColumn {
    /// Dictionary code of `key`, if the block contains it at all — the
    /// equality short-circuit: a missing key rules out every row
    /// without looking at a single code.
    pub fn code_of(&self, key: &Atom) -> Option<u32> {
        self.dict.iter().position(|a| a == key).map(|i| i as u32)
    }

    /// The atom at row `r`.
    pub fn atom(&self, r: usize) -> Option<&Atom> {
        self.dict.get(*self.codes.get(r)? as usize)
    }
}

/// A fully decoded block: column-major, rows materialized lazily.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBlock {
    pub rows: u32,
    pub columns: Vec<DecodedColumn>,
}

impl DecodedBlock {
    /// Materialize row `r` as a flat tuple (clones one atom per
    /// column).
    pub fn row(&self, r: usize) -> Result<Tuple> {
        if r >= self.rows as usize {
            return Err(StorageError::Corrupt(format!(
                "cold row {r} beyond block of {} rows",
                self.rows
            )));
        }
        let mut fields = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            let atom = c
                .atom(r)
                .ok_or_else(|| StorageError::Corrupt("cold block code out of range".into()))?;
            fields.push(Value::Atom(atom.clone()));
        }
        Ok(Tuple::new(fields))
    }
}

/// Build one block from flat rows (all fields must be atoms and every
/// row must have the same arity). Returns the encoded record payload
/// and the per-column zone maps for the catalog.
pub fn build_block(rows: &[Tuple]) -> Result<(Vec<u8>, BlockZones)> {
    let ncols = rows.first().map(|t| t.fields.len()).unwrap_or(0);
    let mut dicts: Vec<Vec<Atom>> = vec![Vec::new(); ncols];
    let mut codes: Vec<Vec<u32>> = vec![Vec::new(); ncols];
    for t in rows {
        if t.fields.len() != ncols {
            return Err(StorageError::Corrupt(format!(
                "cold block row arity {} != {ncols}",
                t.fields.len()
            )));
        }
        for (c, v) in t.fields.iter().enumerate() {
            let atom = v.as_atom().ok_or_else(|| {
                StorageError::Corrupt("cold block got a table-valued field".into())
            })?;
            let code = match dicts[c].iter().position(|a| a == atom) {
                Some(i) => i as u32,
                None => {
                    dicts[c].push(atom.clone());
                    (dicts[c].len() - 1) as u32
                }
            };
            codes[c].push(code);
        }
    }
    let zones: BlockZones = dicts
        .iter()
        .map(|dict| {
            let mut min = dict[0].clone();
            let mut max = dict[0].clone();
            for a in &dict[1..] {
                if a.partial_cmp_same(&min) == Some(std::cmp::Ordering::Less) {
                    min = a.clone();
                }
                if a.partial_cmp_same(&max) == Some(std::cmp::Ordering::Greater) {
                    max = a.clone();
                }
            }
            (min, max)
        })
        .collect();

    let mut payload = Vec::new();
    for c in 0..ncols {
        encode_atom(&zones[c].0, &mut payload);
        encode_atom(&zones[c].1, &mut payload);
        payload.extend_from_slice(&(dicts[c].len() as u32).to_le_bytes());
        for a in &dicts[c] {
            encode_atom(a, &mut payload);
        }
        for code in &codes[c] {
            payload.extend_from_slice(&code.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 19);
    out.extend_from_slice(&BLOCK_MAGIC);
    out.push(BLOCK_VERSION);
    out.extend_from_slice(&(ncols as u16).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok((out, zones))
}

/// Decode one block record, verifying the header CRC. Also returns the
/// zone maps stored in the payload (so integrity checks can compare
/// them against the catalog copy).
pub fn decode_block(bytes: &[u8]) -> Result<(DecodedBlock, BlockZones)> {
    let header = bytes
        .get(..19)
        .ok_or_else(|| StorageError::Corrupt("cold block shorter than its header".into()))?;
    if header[..4] != BLOCK_MAGIC {
        return Err(StorageError::Corrupt("cold block magic mismatch".into()));
    }
    if header[4] != BLOCK_VERSION {
        return Err(StorageError::Corrupt(format!(
            "cold block version {} unsupported",
            header[4]
        )));
    }
    let ncols = u16::from_le_bytes(header[5..7].try_into().unwrap()) as usize;
    let nrows = u32::from_le_bytes(header[7..11].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[11..15].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(header[15..19].try_into().unwrap());
    let payload = bytes
        .get(19..19 + payload_len)
        .filter(|_| bytes.len() == 19 + payload_len)
        .ok_or_else(|| StorageError::Corrupt("cold block payload length mismatch".into()))?;
    let found = crc32(payload);
    if found != stored_crc {
        return Err(StorageError::ChecksumMismatch(format!(
            "cold block payload: stored {stored_crc:#010x}, computed {found:#010x}"
        )));
    }
    let mut pos = 0usize;
    let mut columns = Vec::with_capacity(ncols);
    let mut zones = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let min = decode_atom(payload, &mut pos)?;
        let max = decode_atom(payload, &mut pos)?;
        let dict_len = read_u32(payload, &mut pos)? as usize;
        // Hostile-count clamp: a dictionary can never exceed the row
        // count, and the count must fit what remains of the payload.
        if dict_len > nrows as usize || dict_len > payload.len() {
            return Err(StorageError::Corrupt(format!(
                "cold block dictionary of {dict_len} entries for {nrows} rows"
            )));
        }
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            dict.push(decode_atom(payload, &mut pos)?);
        }
        let mut codes = Vec::with_capacity(nrows as usize);
        for _ in 0..nrows {
            let code = read_u32(payload, &mut pos)?;
            if code as usize >= dict_len {
                return Err(StorageError::Corrupt(format!(
                    "cold block code {code} beyond dictionary of {dict_len}"
                )));
            }
            codes.push(code);
        }
        zones.push((min, max));
        columns.push(DecodedColumn { dict, codes });
    }
    if pos != payload.len() {
        return Err(StorageError::Corrupt(format!(
            "cold block payload has {} trailing bytes",
            payload.len() - pos
        )));
    }
    Ok((
        DecodedBlock {
            rows: nrows,
            columns,
        },
        zones,
    ))
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let b = buf
        .get(*pos..*pos + 4)
        .ok_or_else(|| StorageError::Corrupt("cold block truncated".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes(b.try_into().unwrap()))
}

/// Can a block whose column spans `zone` contain a row equal to `key`?
/// A type mismatch means the column holds atoms of another type, none
/// of which can equal `key` — prunable.
pub fn zone_may_contain(zone: &(Atom, Atom), key: &Atom) -> bool {
    use std::cmp::Ordering::{Greater, Less};
    match (key.partial_cmp_same(&zone.0), key.partial_cmp_same(&zone.1)) {
        (Some(lo), Some(hi)) => lo != Less && hi != Greater,
        _ => false,
    }
}

/// Can a block whose column spans `zone` intersect the range
/// `(lo, hi)`? Each bound carries an inclusivity flag; `None` means
/// unbounded on that side. A type mismatch on a present bound prunes
/// (comparisons against the column's type never hold).
pub fn zone_may_intersect(
    zone: &(Atom, Atom),
    lo: Option<&(Atom, bool)>,
    hi: Option<&(Atom, bool)>,
) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    if let Some((lo_atom, inclusive)) = lo {
        // Rows must be >= lo (or > lo): the block's max decides.
        match zone.1.partial_cmp_same(lo_atom) {
            Some(Less) => return false,
            Some(Equal) if !inclusive => return false,
            Some(_) => {}
            None => return false,
        }
    }
    if let Some((hi_atom, inclusive)) = hi {
        match zone.0.partial_cmp_same(hi_atom) {
            Some(Greater) => return false,
            Some(Equal) if !inclusive => return false,
            Some(_) => {}
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim2_model::value::build::{a, tup};

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| tup(vec![a(i), a(format!("v{}", i % 3)), a(i % 2 == 0)]))
            .collect()
    }

    #[test]
    fn block_roundtrip() {
        let rs = rows(100);
        let (bytes, zones) = build_block(&rs).unwrap();
        let (block, stored_zones) = decode_block(&bytes).unwrap();
        assert_eq!(block.rows, 100);
        assert_eq!(zones, stored_zones);
        assert_eq!(zones[0], (Atom::Int(0), Atom::Int(99)));
        for (i, t) in rs.iter().enumerate() {
            assert_eq!(&block.row(i).unwrap(), t);
        }
        // Dictionary compressed the repeated string column.
        assert_eq!(block.columns[1].dict.len(), 3);
        assert_eq!(block.columns[2].dict.len(), 2);
    }

    #[test]
    fn single_distinct_value_dictionary() {
        let rs: Vec<Tuple> = (0..50).map(|_| tup(vec![a(7), a("same")])).collect();
        let (bytes, zones) = build_block(&rs).unwrap();
        let (block, _) = decode_block(&bytes).unwrap();
        assert_eq!(block.columns[0].dict, vec![Atom::Int(7)]);
        assert_eq!(block.columns[1].dict.len(), 1);
        assert_eq!(zones[0], (Atom::Int(7), Atom::Int(7)));
        assert_eq!(block.row(49).unwrap(), rs[49]);
    }

    #[test]
    fn empty_block_is_legal() {
        let (bytes, zones) = build_block(&[]).unwrap();
        let (block, _) = decode_block(&bytes).unwrap();
        assert_eq!(block.rows, 0);
        assert!(block.columns.is_empty());
        assert!(zones.is_empty());
    }

    #[test]
    fn flipped_bit_anywhere_is_detected() {
        let (bytes, _) = build_block(&rows(40)).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut dam = bytes.clone();
                dam[byte] ^= 1 << bit;
                assert!(
                    decode_block(&dam).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn zone_checks() {
        let zone = (Atom::Int(10), Atom::Int(20));
        assert!(zone_may_contain(&zone, &Atom::Int(10)));
        assert!(zone_may_contain(&zone, &Atom::Int(15)));
        assert!(!zone_may_contain(&zone, &Atom::Int(9)));
        assert!(!zone_may_contain(&zone, &Atom::Int(21)));
        // Type mismatch: the column is all-Int, a Str key matches no row.
        assert!(!zone_may_contain(&zone, &Atom::Str("x".into())));

        let lo = |v: i64, inc: bool| Some((Atom::Int(v), inc));
        assert!(zone_may_intersect(&zone, lo(5, true).as_ref(), None));
        assert!(!zone_may_intersect(&zone, lo(21, true).as_ref(), None));
        assert!(zone_may_intersect(&zone, lo(20, true).as_ref(), None));
        assert!(!zone_may_intersect(&zone, lo(20, false).as_ref(), None));
        assert!(!zone_may_intersect(&zone, None, lo(10, false).as_ref()));
        assert!(zone_may_intersect(&zone, None, lo(10, true).as_ref()));
        assert!(zone_may_intersect(
            &zone,
            lo(12, true).as_ref(),
            lo(13, true).as_ref()
        ));
    }

    #[test]
    fn cold_keys_disjoint_from_tids() {
        let k = cold_key(3, 17);
        assert_eq!(split_cold_key(k), Some((3, 17)));
        let heap = Tid::new(crate::tid::PageId(u32::MAX), crate::tid::SlotNo(u16::MAX)).to_u64();
        assert_eq!(split_cold_key(heap), None);
        assert!(k & COLD_KEY_BIT != 0);
    }

    #[test]
    fn eq_shortcircuit_via_dictionary() {
        let rs = rows(30);
        let (bytes, _) = build_block(&rs).unwrap();
        let (block, _) = decode_block(&bytes).unwrap();
        assert_eq!(block.columns[1].code_of(&Atom::Str("v1".into())), Some(1));
        assert_eq!(block.columns[1].code_of(&Atom::Str("nope".into())), None);
    }
}
