//! Write-ahead log.
//!
//! Every state mutation is logged before it is applied; recovery replays the
//! log to rebuild durable state (§4: "a traditional RDBMS only guarantees
//! the integrity of durable state" — this is that guarantee; the CQ layer
//! adds runtime-state recovery from Active Tables on top).
//!
//! On-disk framing: `[u32 payload_len][u32 crc32(lsn ‖ payload)][u64 lsn][payload]`.
//! Replay tolerates a torn final record (crash mid-append) by stopping at
//! the first length/CRC mismatch, mirroring how real WALs handle tails;
//! the engine then truncates the file to the valid prefix so fresh
//! appends are never stranded behind a corrupt record.
//!
//! A batch of rows is one record ([`WalRecord::InsertMany`], one frame,
//! one CRC), as is a batch of delete stamps ([`WalRecord::DeleteMany`]);
//! a torn batch is a missing record, and its transaction — which then has
//! no commit record either — replays as aborted. [`WalRecord::Insert`],
//! which the engine no longer writes, replays as a batch of one; the
//! per-row delete (type 3) is retired and stops replay like any unknown.
//!
//! Each frame carries the engine-global **log sequence number** under the
//! CRC. With the commit domain partitioned across `wal-<shard>.log` files
//! (DESIGN.md §13), recovery merges every log's surviving records in LSN
//! order to reconstruct one serial history — without the LSN, records from
//! different logs touching the same table could replay out of order (e.g.
//! a delete before the insert it deletes).
//!
//! All file traffic goes through the [`Io`] trait so the fault-injection
//! harness (`streamrel-faults`) can tear writes and fail fsyncs. A failed
//! flush or fsync **poisons** the log: the durable state of the file is
//! indeterminate after such a failure (fsyncgate), so every subsequent
//! append/commit returns [`Error::WalPoisoned`] until the engine is
//! reopened and recovery re-establishes a known-good prefix.

use std::path::PathBuf;
use std::sync::Arc;

use streamrel_types::{Error, Result, Row, Schema};

use crate::io::{Io, StdIo};

use crate::codec::{
    decode_row, decode_schema, encode_row, encode_schema, put_str, put_u32, put_u64, Reader,
};
use crate::crc::crc32;
use crate::txn::TxnId;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start.
    Begin { xid: TxnId },
    /// Row inserted at a heap slot.
    Insert {
        xid: TxnId,
        table: u32,
        slot: u64,
        row: Row,
    },
    /// A batch of rows inserted at the contiguous slots starting at
    /// `first_slot`.
    InsertMany {
        xid: TxnId,
        table: u32,
        first_slot: u64,
        rows: Vec<Row>,
    },
    /// The row versions at exactly these slots stamped deleted.
    DeleteMany {
        xid: TxnId,
        table: u32,
        slots: Vec<u64>,
    },
    /// Transaction committed (records before this are durable effects).
    Commit { xid: TxnId },
    /// Transaction aborted (its effects must be ignored on replay).
    Abort { xid: TxnId },
    /// DDL: table created.
    CreateTable {
        id: u32,
        name: String,
        schema: Schema,
    },
    /// DDL: table dropped.
    DropTable { id: u32 },
    /// DDL: table truncated (REPLACE-mode channels use this).
    Truncate { table: u32, xid: TxnId },
    /// Generic persistent key/value entry (stream / view / channel DDL text
    /// lives here, replayed by the upper layers after storage recovery).
    CatalogPut { key: String, value: String },
    /// Transactional catalog entry: applied on replay only if `xid`
    /// committed. Used for CQ watermarks so the watermark and the window's
    /// Active-Table rows become durable atomically (exactly-once
    /// archiving across crashes, §4).
    CatalogPutTxn {
        xid: TxnId,
        key: String,
        value: String,
    },
    /// Remove a catalog entry.
    CatalogDel { key: String },
    /// Checkpoint-generation marker, written as the first record of a
    /// freshly reset log. On recovery, a log whose epoch is *older* than
    /// the checkpoint's expectation for its shard is stale — the
    /// checkpoint already contains every effect it describes (the crash
    /// hit between the checkpoint rename and that log's reset) — and
    /// replaying it over the checkpointed heap would double-apply
    /// records against renumbered slots. `shard` identifies which
    /// commit domain's log stamped the marker so a crash that resets
    /// only *some* logs discards exactly the stale ones.
    Epoch { epoch: u64, shard: u32 },
}

const T_BEGIN: u8 = 1;
const T_INSERT: u8 = 2;
const T_COMMIT: u8 = 4;
const T_ABORT: u8 = 5;
const T_CREATE: u8 = 6;
const T_DROP: u8 = 7;
const T_TRUNC: u8 = 8;
const T_CPUT: u8 = 9;
const T_CDEL: u8 = 10;
const T_CPUTX: u8 = 11;
const T_EPOCH: u8 = 12;
const T_INSERT_MANY: u8 = 13;
const T_DELETE_MANY: u8 = 14;

/// Payload of [`WalRecord::InsertMany`] from borrowed rows, so the engine
/// logs a batch without first moving it into a record.
pub(crate) fn encode_insert_many(
    b: &mut Vec<u8>,
    xid: TxnId,
    table: u32,
    first_slot: u64,
    rows: &[Row],
) {
    b.push(T_INSERT_MANY);
    put_u64(b, xid);
    put_u32(b, table);
    put_u64(b, first_slot);
    put_u32(b, rows.len() as u32);
    for row in rows {
        encode_row(b, row);
    }
}

impl WalRecord {
    /// Append the payload form to `b`.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { xid } => {
                b.push(T_BEGIN);
                put_u64(b, *xid);
            }
            WalRecord::Insert {
                xid,
                table,
                slot,
                row,
            } => {
                b.push(T_INSERT);
                put_u64(b, *xid);
                put_u32(b, *table);
                put_u64(b, *slot);
                encode_row(b, row);
            }
            WalRecord::InsertMany {
                xid,
                table,
                first_slot,
                rows,
            } => encode_insert_many(b, *xid, *table, *first_slot, rows),
            WalRecord::DeleteMany { xid, table, slots } => {
                b.push(T_DELETE_MANY);
                put_u64(b, *xid);
                put_u32(b, *table);
                put_u32(b, slots.len() as u32);
                for slot in slots {
                    put_u64(b, *slot);
                }
            }
            WalRecord::Commit { xid } => {
                b.push(T_COMMIT);
                put_u64(b, *xid);
            }
            WalRecord::Abort { xid } => {
                b.push(T_ABORT);
                put_u64(b, *xid);
            }
            WalRecord::CreateTable { id, name, schema } => {
                b.push(T_CREATE);
                put_u32(b, *id);
                put_str(b, name);
                encode_schema(b, schema);
            }
            WalRecord::DropTable { id } => {
                b.push(T_DROP);
                put_u32(b, *id);
            }
            WalRecord::Truncate { table, xid } => {
                b.push(T_TRUNC);
                put_u32(b, *table);
                put_u64(b, *xid);
            }
            WalRecord::CatalogPut { key, value } => {
                b.push(T_CPUT);
                put_str(b, key);
                put_str(b, value);
            }
            WalRecord::CatalogDel { key } => {
                b.push(T_CDEL);
                put_str(b, key);
            }
            WalRecord::CatalogPutTxn { xid, key, value } => {
                b.push(T_CPUTX);
                put_u64(b, *xid);
                put_str(b, key);
                put_str(b, value);
            }
            WalRecord::Epoch { epoch, shard } => {
                b.push(T_EPOCH);
                put_u64(b, *epoch);
                put_u32(b, *shard);
            }
        }
    }

    /// Deserialize from a payload.
    pub fn decode(buf: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(buf);
        let rec = match r.u8()? {
            T_BEGIN => WalRecord::Begin { xid: r.u64()? },
            T_INSERT => WalRecord::Insert {
                xid: r.u64()?,
                table: r.u32()?,
                slot: r.u64()?,
                row: decode_row(&mut r)?,
            },
            T_INSERT_MANY => {
                let (xid, table, first_slot) = (r.u64()?, r.u32()?, r.u64()?);
                // Grown row by row: a count the payload cannot back fails
                // at its first missing row instead of sizing an allocation.
                let mut rows = Vec::new();
                for _ in 0..r.u32()? {
                    rows.push(decode_row(&mut r)?);
                }
                WalRecord::InsertMany {
                    xid,
                    table,
                    first_slot,
                    rows,
                }
            }
            T_DELETE_MANY => {
                let (xid, table) = (r.u64()?, r.u32()?);
                let mut slots = Vec::new();
                for _ in 0..r.u32()? {
                    slots.push(r.u64()?);
                }
                WalRecord::DeleteMany { xid, table, slots }
            }
            T_COMMIT => WalRecord::Commit { xid: r.u64()? },
            T_ABORT => WalRecord::Abort { xid: r.u64()? },
            T_CREATE => WalRecord::CreateTable {
                id: r.u32()?,
                name: r.str()?,
                schema: decode_schema(&mut r)?,
            },
            T_DROP => WalRecord::DropTable { id: r.u32()? },
            T_TRUNC => WalRecord::Truncate {
                table: r.u32()?,
                xid: r.u64()?,
            },
            T_CPUT => WalRecord::CatalogPut {
                key: r.str()?,
                value: r.str()?,
            },
            T_CDEL => WalRecord::CatalogDel { key: r.str()? },
            T_CPUTX => WalRecord::CatalogPutTxn {
                xid: r.u64()?,
                key: r.str()?,
                value: r.str()?,
            },
            T_EPOCH => WalRecord::Epoch {
                epoch: r.u64()?,
                shard: r.u32()?,
            },
            t => return Err(Error::storage(format!("unknown wal record type {t}"))),
        };
        if r.remaining() != 0 {
            return Err(Error::storage("trailing bytes in wal record"));
        }
        Ok(rec)
    }
}

/// Durability policy for the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Buffer in user space; written to the OS only when the buffer passes
    /// 1 MiB and on a clean drop, never at a commit. Fastest; loses the
    /// unwritten tail on crash. Fine for benchmarks and derived state.
    NoSync,
    /// Flush to the OS page cache on every commit (default): survives
    /// process crash, not power loss.
    #[default]
    Flush,
    /// `fdatasync` on every commit: survives power loss.
    Fsync,
}

/// User-space buffer size above which appends spill to the OS even
/// before a commit point. A transaction below it reaches the OS in the
/// one write at its commit.
const SPILL_BYTES: usize = 1 << 20;

/// Append-only WAL writer.
pub struct Wal {
    path: PathBuf,
    io: Arc<dyn Io>,
    /// User-space record buffer; spills at [`SPILL_BYTES`] and at every
    /// commit point (except under [`SyncMode::NoSync`]).
    buf: Vec<u8>,
    sync: SyncMode,
    /// Highest LSN appended through this handle (0 = none yet). A group
    /// commit leader reads this under the log lock to learn how far one
    /// fsync will cover.
    last_lsn: u64,
    /// Set on the first failed flush/fsync; all further writes refuse.
    poisoned: Option<String>,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending, over
    /// the real filesystem.
    pub fn open(path: impl Into<PathBuf>, sync: SyncMode) -> Result<Wal> {
        Wal::open_with_io(path, sync, StdIo::shared())
    }

    /// Open over an explicit [`Io`] implementation (fault injection).
    pub fn open_with_io(path: impl Into<PathBuf>, sync: SyncMode, io: Arc<dyn Io>) -> Result<Wal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            io.create_dir_all(dir)?;
        }
        Ok(Wal {
            path,
            io,
            buf: Vec::new(),
            sync,
            last_lsn: 0,
            poisoned: None,
        })
    }

    /// Highest LSN appended through this handle (0 = none yet).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Whether a failed flush/fsync has poisoned this log handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The typed error every operation returns once poisoned.
    fn poison_err(&self) -> Option<Error> {
        self.poisoned
            .as_ref()
            .map(|reason| Error::WalPoisoned(reason.clone()))
    }

    /// Record a write/sync failure: the file's durable contents are now
    /// indeterminate, so the handle refuses all further traffic.
    fn poison(&mut self, e: Error) -> Error {
        if self.poisoned.is_none() {
            self.poisoned = Some(e.to_string());
        }
        e
    }

    /// Push the user-space buffer to the OS cache.
    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        match self.io.append(&self.path, &self.buf) {
            Ok(()) => {
                self.buf.clear();
                Ok(())
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Append one record under the given global LSN (framing + CRC over
    /// `lsn ‖ payload`). Durability is controlled by [`Wal::sync_commit`],
    /// which callers invoke at commit points.
    pub fn append(&mut self, lsn: u64, rec: &WalRecord) -> Result<()> {
        self.append_with(lsn, |b| rec.encode_into(b))
    }

    /// [`Wal::append`] for a payload `encode` writes straight into the log
    /// buffer: one frame and one CRC however many rows it carries, and no
    /// intermediate copy.
    pub(crate) fn append_with(
        &mut self,
        lsn: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        if let Some(e) = self.poison_err() {
            return Err(e);
        }
        let frame = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]); // length and CRC, patched below
        put_u64(&mut self.buf, lsn);
        encode(&mut self.buf);
        let Ok(len) = u32::try_from(self.buf.len() - frame - 16) else {
            self.buf.truncate(frame);
            return Err(Error::storage("wal record exceeds 4 GiB"));
        };
        let crc = crc32(&self.buf[frame + 8..]);
        self.buf[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        self.last_lsn = self.last_lsn.max(lsn);
        if self.buf.len() >= SPILL_BYTES {
            self.spill()?;
        }
        Ok(())
    }

    /// Make previously appended records durable per the sync mode.
    pub fn sync_commit(&mut self) -> Result<()> {
        if let Some(e) = self.poison_err() {
            return Err(e);
        }
        match self.sync {
            SyncMode::NoSync => Ok(()),
            SyncMode::Flush => self.spill(),
            SyncMode::Fsync => {
                self.spill()?;
                match self.io.sync(&self.path) {
                    Ok(()) => Ok(()),
                    Err(e) => Err(self.poison(e)),
                }
            }
        }
    }

    /// Discard buffered records and truncate the log to zero length
    /// (after a checkpoint has captured all state).
    pub fn reset(&mut self) -> Result<()> {
        if let Some(e) = self.poison_err() {
            return Err(e);
        }
        self.buf.clear();
        match self.io.truncate(&self.path, 0) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.poison(e)),
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort flush so NoSync logs survive a clean drop, as the
        // old BufWriter-backed writer did. Errors are unreportable here.
        if self.poisoned.is_none() {
            let _ = self.spill();
        }
    }
}

/// Replay from an in-memory image of the log file: every intact record
/// tagged with its global LSN, plus the byte length of the valid prefix
/// (the engine truncates the file to that length before appending new
/// records, so a torn or corrupt tail can never strand later appends
/// behind it).
pub fn replay_bytes(data: &[u8]) -> (Vec<(u64, WalRecord)>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    // A frame cut short is a torn tail, a CRC or decode failure a corrupt
    // one: either ends replay.
    while let Some(head) = data.get(pos..pos + 16) {
        let word = |i: usize| u32::from_le_bytes([head[i], head[i + 1], head[i + 2], head[i + 3]]);
        let end = (pos + 16).saturating_add(word(0) as usize);
        let Some(body) = data.get(pos + 8..end).filter(|b| crc32(b) == word(4)) else {
            break;
        };
        let Ok(rec) = WalRecord::decode(&body[8..]) else {
            break;
        };
        records.push((u64::from(word(8)) | u64::from(word(12)) << 32, rec));
        pos = end;
    }
    (records, pos as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use streamrel_types::{row, Column, DataType};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streamrel-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    /// Every intact record of the log file at `path`, and the byte length
    /// of its valid prefix.
    fn replay(path: &Path) -> Result<(Vec<(u64, WalRecord)>, u64)> {
        Ok(replay_bytes(&std::fs::read(path).unwrap_or_default()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::new(vec![
            Column::not_null("url", DataType::Text),
            Column::new("hits", DataType::Int),
        ])
        .unwrap();
        vec![
            WalRecord::CreateTable {
                id: 7,
                name: "urls".into(),
                schema,
            },
            WalRecord::Begin { xid: 2 },
            WalRecord::Insert {
                xid: 2,
                table: 7,
                slot: 0,
                row: row!["/index", 3i64],
            },
            WalRecord::InsertMany {
                xid: 2,
                table: 7,
                first_slot: 1,
                rows: vec![row!["/a", 1i64], row!["/b", 2i64]],
            },
            WalRecord::DeleteMany {
                xid: 2,
                table: 7,
                slots: vec![1, 2],
            },
            WalRecord::InsertMany {
                xid: 2,
                table: 7,
                first_slot: 3,
                rows: vec![],
            },
            WalRecord::Commit { xid: 2 },
            WalRecord::CatalogPut {
                key: "stream.url_stream".into(),
                value: "CREATE STREAM url_stream (...)".into(),
            },
            WalRecord::Truncate { table: 7, xid: 3 },
            WalRecord::Abort { xid: 3 },
            WalRecord::CatalogDel {
                key: "stream.url_stream".into(),
            },
            WalRecord::CatalogPutTxn {
                xid: 4,
                key: "cq_watermark.urls_now".into(),
                value: "60000000".into(),
            },
            WalRecord::Epoch { epoch: 3, shard: 2 },
            WalRecord::DropTable { id: 7 },
        ]
    }

    /// Append `recs` with LSNs 1..=n through a fresh handle.
    fn append_all(wal: &mut Wal, recs: &[WalRecord]) {
        for (i, r) in recs.iter().enumerate() {
            wal.append(i as u64 + 1, r).unwrap();
        }
    }

    /// Strip LSNs from a replay result.
    fn recs_of(pairs: Vec<(u64, WalRecord)>) -> Vec<WalRecord> {
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn record_encoding_roundtrips() {
        for rec in sample_records() {
            let mut enc = Vec::new();
            rec.encode_into(&mut enc);
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec, "{rec:?}");
        }
    }

    /// One fixed record, framed: the bytes pin the on-disk format —
    /// framing, record encoding and the CRC-32 (zlib's, computed apart).
    #[test]
    fn golden_frame() {
        let path = tmp("golden");
        let rec = WalRecord::InsertMany {
            xid: 2,
            table: 7,
            first_slot: 1,
            rows: vec![row!["/a", 1i64]],
        };
        let mut wal = Wal::open(&path, SyncMode::Flush).unwrap();
        wal.append(5, &rec).unwrap();
        wal.sync_commit().unwrap();
        #[rustfmt::skip]
        let golden: [u8; 61] = [
            45, 0, 0, 0, 0xEF, 0x56, 0xA4, 0x1C, // payload length, CRC
            5, 0, 0, 0, 0, 0, 0, 0, // LSN
            13, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, // InsertMany, xid, table
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // first slot, row count
            2, 0, 0, 0, 4, 2, 0, 0, 0, b'/', b'a', // arity, text "/a"
            2, 1, 0, 0, 0, 0, 0, 0, 0, // int 1
        ];
        assert_eq!(std::fs::read(&path).unwrap(), golden);
        assert_eq!(replay(&path).unwrap().0, vec![(5, rec)]);
    }

    #[test]
    fn append_and_replay() {
        let path = tmp("roundtrip");
        let recs = sample_records();
        {
            let mut wal = Wal::open(&path, SyncMode::Flush).unwrap();
            append_all(&mut wal, &recs);
            assert_eq!(wal.last_lsn(), recs.len() as u64);
            wal.sync_commit().unwrap();
        }
        let (got, _) = replay(&path).unwrap();
        let lsns: Vec<u64> = got.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (1..=recs.len() as u64).collect::<Vec<_>>());
        assert_eq!(recs_of(got), recs);
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        let (got, bytes) = replay(&path).unwrap();
        assert!(got.is_empty());
        assert_eq!(bytes, 0);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn");
        let recs = sample_records();
        {
            let mut wal = Wal::open(&path, SyncMode::Flush).unwrap();
            append_all(&mut wal, &recs);
            wal.sync_commit().unwrap();
        }
        // Chop off the last 3 bytes: final record is torn.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let (got, _) = replay(&path).unwrap();
        assert_eq!(got.len(), recs.len() - 1);
        assert_eq!(recs_of(got)[..], recs[..recs.len() - 1]);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmp("crc");
        let recs = sample_records();
        {
            let mut wal = Wal::open(&path, SyncMode::Flush).unwrap();
            append_all(&mut wal, &recs);
            wal.sync_commit().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload. A frame is
        // `[u32 len][u32 crc][u64 lsn][payload]`: 16 bytes of header+lsn.
        let first_len = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        let idx = (16 + first_len) + 16 + 1;
        data[idx] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (got, _) = replay(&path).unwrap();
        assert_eq!(got.len(), 1, "only the first record survives");
    }

    #[test]
    fn reset_truncates() {
        let path = tmp("reset");
        let mut wal = Wal::open(&path, SyncMode::Flush).unwrap();
        append_all(&mut wal, &sample_records());
        wal.sync_commit().unwrap();
        wal.reset().unwrap();
        wal.append(40, &WalRecord::Begin { xid: 99 }).unwrap();
        wal.sync_commit().unwrap();
        drop(wal);
        let (got, _) = replay(&path).unwrap();
        assert_eq!(got, vec![(40, WalRecord::Begin { xid: 99 })]);
    }

    #[test]
    fn fsync_mode_works() {
        let path = tmp("fsync");
        let mut wal = Wal::open(&path, SyncMode::Fsync).unwrap();
        wal.append(1, &WalRecord::Begin { xid: 5 }).unwrap();
        wal.sync_commit().unwrap();
        let (got, _) = replay(&path).unwrap();
        assert_eq!(got.len(), 1);
    }

    /// An [`Io`] whose fsync fails once; everything else passes through
    /// to the real filesystem.
    struct FailingSyncIo {
        inner: StdIo,
        fail_next_sync: parking_lot::Mutex<bool>,
    }

    impl Io for FailingSyncIo {
        fn create_dir_all(&self, path: &Path) -> Result<()> {
            self.inner.create_dir_all(path)
        }
        fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
            self.inner.read(path)
        }
        fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
            self.inner.append(path, data)
        }
        fn sync(&self, path: &Path) -> Result<()> {
            if std::mem::take(&mut *self.fail_next_sync.lock()) {
                return Err(Error::Io("injected fsync EIO".into()));
            }
            self.inner.sync(path)
        }
        fn truncate(&self, path: &Path, len: u64) -> Result<()> {
            self.inner.truncate(path, len)
        }
        fn replace(&self, path: &Path, data: &[u8]) -> Result<()> {
            self.inner.replace(path, data)
        }
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        let path = tmp("poison");
        let io = Arc::new(FailingSyncIo {
            inner: StdIo::new(),
            fail_next_sync: parking_lot::Mutex::new(false),
        });
        let mut wal = Wal::open_with_io(&path, SyncMode::Fsync, io.clone()).unwrap();
        wal.append(1, &WalRecord::Begin { xid: 1 }).unwrap();
        wal.sync_commit().unwrap();

        *io.fail_next_sync.lock() = true;
        wal.append(2, &WalRecord::Begin { xid: 2 }).unwrap();
        let first = wal.sync_commit().unwrap_err();
        assert!(matches!(first, Error::Io(_)), "first failure is the cause");
        assert!(wal.is_poisoned());

        // Every subsequent operation returns the typed poison error; the
        // file never sees another byte.
        for op in [
            wal.append(3, &WalRecord::Begin { xid: 3 }),
            wal.sync_commit(),
            wal.reset(),
        ] {
            assert!(matches!(op.unwrap_err(), Error::WalPoisoned(_)));
        }
        drop(wal); // drop must not attempt to spill a poisoned buffer
        let (got, _) = replay(&path).unwrap();
        let got = recs_of(got);
        // xid 2 may or may not be durable (it reached the OS cache before
        // the failed fsync); xid 3 must not be.
        assert!(got.iter().all(|r| *r != WalRecord::Begin { xid: 3 }));
        assert!(got.contains(&WalRecord::Begin { xid: 1 }));
    }
}
