//! Segmented write-ahead log with preallocated segments and tolerant replay.
//!
//! One WAL per datacenter records every durable acceptor event as a
//! CRC-framed record (see [`crate::frame`]) in segment files
//! `wal-NNNNNN.seg`. Three record kinds cover the protocol:
//!
//! * [`WalRecord::Promise`] — the acceptor raised its promised ballot for a
//!   position (must be durable before the `PrepareReply` is sent);
//! * [`WalRecord::Vote`] — the acceptor accepted a value (durable before
//!   the `AcceptReply`);
//! * [`WalRecord::Decided`] — a decided log entry was installed locally
//!   (durable before the entry applies; no acknowledgement waits for it).
//!
//! A record's payload is [`walog::codec`] text: the kind's letter, group
//! and position, the ballot as `round:proposer` (`P 2 9 4:3`), and for a
//! vote or a decision the entry's own [`LogEntry::encode`] as a
//! `len:bytes` string.
//!
//! Appends buffer in memory; [`Wal::sync`] writes the whole buffer with one
//! `write` + `fdatasync` pair, so one sync covers every buffered record.
//! Persist-before-ack syncs each promise and vote on the message's critical
//! path, and `Decided` records ride whichever sync comes next. What keeps a
//! sync cheap is the segment life cycle:
//!
//! * the **active** segment is preallocated — `set_len(segment_bytes)` once
//!   at creation, sparse — and records are written at the tracked logical
//!   length, so `fdatasync` has no *size* change to commit to the file
//!   system's journal per record. The preallocation reserves no blocks,
//!   though: the first write into each sparse block still allocates it,
//!   and the sync that covers that write commits the allocation. (A
//!   zero-filled segment would avoid that, at the cost of writing the
//!   whole segment when it is created; docs/BENCHMARKS.md records the
//!   measurement.) Only the active segment ever carries a zero tail (a
//!   sync larger than what is left simply grows the file);
//! * a **sealed** segment is exactly its frames: rotation cuts the file back
//!   to its logical length before the next segment is created.
//!
//! Replay therefore reads "zeros to the end of the file" as a clean end.
//! Anything else that is not a whole record — a short header or payload, a
//! checksum mismatch, a checksummed frame that does not decode — is a torn
//! tail: [`replay`] stops cleanly there, reports it, and never
//! resynchronises past it. [`Wal::open`] repairs the previous run's final
//! segment — cutting it to its logical length, which drops a torn frame and
//! the zero tail alike — and then always starts a fresh segment, so a bad
//! frame can only ever exist at the tail of the final segment written before
//! a crash.
//!
//! Truncation is whole-segment: a sealed segment is deletable once every
//! group that has records in it has its truncation floor strictly above
//! the segment's highest recorded position for that group.

use crate::fault::{FaultPlan, StorageError};
use crate::frame::{begin_frame, finish_frame, read_frame, FrameRead};
use paxos::Ballot;
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use walog::codec::{Reader, TokenWriter};
use walog::{GroupId, LogEntry, LogPosition};

/// One durable acceptor event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Promise made in phase 1: never answer a lower ballot again.
    Promise {
        /// Transaction group.
        group: GroupId,
        /// Log position the promise covers.
        position: LogPosition,
        /// The promised ballot.
        ballot: Ballot,
    },
    /// Vote cast in phase 2 for a concrete value.
    Vote {
        /// Transaction group.
        group: GroupId,
        /// Log position voted on.
        position: LogPosition,
        /// Ballot of the vote.
        ballot: Ballot,
        /// The value voted for.
        entry: Arc<LogEntry>,
    },
    /// A decided entry installed into the local replica of the group log.
    Decided {
        /// Transaction group.
        group: GroupId,
        /// Decided log position.
        position: LogPosition,
        /// The decided value.
        entry: Arc<LogEntry>,
    },
}

impl WalRecord {
    /// The transaction group this record belongs to.
    pub fn group(&self) -> GroupId {
        match self {
            WalRecord::Promise { group, .. }
            | WalRecord::Vote { group, .. }
            | WalRecord::Decided { group, .. } => *group,
        }
    }

    /// The log position this record covers.
    pub fn position(&self) -> LogPosition {
        match self {
            WalRecord::Promise { position, .. }
            | WalRecord::Vote { position, .. }
            | WalRecord::Decided { position, .. } => *position,
        }
    }

    /// Encode as the frame payload, in the [`walog::codec`] token format:
    /// the kind's letter, group and position, the ballot as
    /// `round:proposer`, and the entry's own encoding as a string.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`WalRecord::encode`] straight into `out` (the WAL's sync buffer).
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (tag, ballot, entry) = match self {
            WalRecord::Promise { ballot, .. } => ("P", Some(ballot), None),
            WalRecord::Vote { ballot, entry, .. } => ("V", Some(ballot), Some(entry)),
            WalRecord::Decided { entry, .. } => ("D", None, Some(entry)),
        };
        out.raw(tag);
        out.num(u64::from(self.group().0));
        out.num(self.position().0);
        if let Some(ballot) = ballot {
            out.num(ballot.round);
            out.raw(":");
            out.decimal(ballot.proposer);
        }
        if let Some(entry) = entry {
            out.string(&entry.encode());
        }
    }

    /// Decode a frame payload; `None` for malformed input.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let mut r = Reader::new(std::str::from_utf8(rest).ok()?);
        let group = GroupId(r.id()?);
        let position = LogPosition(r.num()?);
        let record = match tag {
            b'P' => WalRecord::Promise {
                group,
                position,
                ballot: read_ballot(&mut r)?,
            },
            b'V' => WalRecord::Vote {
                group,
                position,
                ballot: read_ballot(&mut r)?,
                entry: Arc::new(LogEntry::decode(r.string()?)?),
            },
            b'D' => WalRecord::Decided {
                group,
                position,
                entry: Arc::new(LogEntry::decode(r.string()?)?),
            },
            _ => return None,
        };
        r.end()?;
        Some(record)
    }
}

/// A ballot as [`WalRecord::encode`] writes it: `round:proposer`.
fn read_ballot(r: &mut Reader<'_>) -> Option<Ballot> {
    let round = r.num()?;
    r.tag(":")?;
    let proposer = r.decimal()?;
    Some(Ballot { round, proposer })
}

/// Result of replaying a WAL directory.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// All records recovered, in append order.
    pub records: Vec<WalRecord>,
    /// True when replay stopped at a torn or corrupt frame (everything
    /// before it was recovered; nothing after it was trusted).
    pub torn_tail: bool,
    /// Segments scanned.
    pub segments: usize,
}

/// Per-segment index: the highest position recorded per group, used to
/// decide when a sealed segment can be deleted.
type SegmentIndex = BTreeMap<GroupId, LogPosition>;

/// The per-datacenter write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    active: std::fs::File,
    active_seq: u64,
    active_len: u64,
    pending: Vec<u8>,
    pending_count: u64,
    pending_max: SegmentIndex,
    index: BTreeMap<u64, SegmentIndex>,
    fault: FaultPlan,
    records_synced: u64,
    syncs: u64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.seg"))
}

fn segment_seqs(dir: &Path) -> Result<Vec<u64>, StorageError> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| StorageError::io("readdir", dir, e))? {
        let entry = entry.map_err(|e| StorageError::io("readdir", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        {
            if let Ok(seq) = stem.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// What a front-to-back scan of one segment file found.
struct SegmentScan {
    /// Every whole record, in append order.
    records: Vec<WalRecord>,
    /// The segment's logical length: the offset just past the last record.
    logical_len: u64,
    /// The file's length (above `logical_len`: a zero tail or a torn frame).
    file_len: u64,
    /// True when the bytes at `logical_len` are a bad frame rather than the
    /// end of the file or the preallocated zero tail.
    torn: bool,
}

fn scan_segment(path: &Path) -> Result<SegmentScan, StorageError> {
    let data = std::fs::read(path).map_err(|e| StorageError::io("read", path, e))?;
    let mut records = Vec::new();
    let mut at = 0;
    let torn = loop {
        // Zeros to the end of the file are preallocated space no record was
        // ever written to: a clean end. (Checked here, not in `read_frame`,
        // where eight zero bytes are a valid empty frame; a written record
        // fails this test within its first header bytes.)
        if data[at..].iter().all(|&b| b == 0) {
            break false;
        }
        match read_frame(&data, at) {
            FrameRead::Frame { payload, next } => match WalRecord::decode(payload) {
                Some(rec) => {
                    records.push(rec);
                    at = next;
                }
                // A checksummed frame that fails to decode is treated like
                // a torn frame: stop trusting the file at this offset.
                None => break true,
            },
            FrameRead::End => break false,
            FrameRead::Torn => break true,
        }
    };
    Ok(SegmentScan {
        records,
        logical_len: at as u64,
        file_len: data.len() as u64,
        torn,
    })
}

/// The logical length of segment file `path`: the offset just past its last
/// whole record, where the next append — or a crash's torn frame — lands.
/// A live [`Wal`] tracks its active segment's instead of scanning for it.
pub(crate) fn logical_len(path: &Path) -> Result<u64, StorageError> {
    Ok(scan_segment(path)?.logical_len)
}

/// Create segment `path` preallocated to `segment_bytes` (sparse: no
/// zero-fill, no sync) and open it for writes at explicit offsets.
fn create_segment(path: &Path, segment_bytes: u64) -> Result<std::fs::File, StorageError> {
    let file = std::fs::OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(path)
        .map_err(|e| StorageError::io("open", path, e))?;
    file.set_len(segment_bytes)
        .map_err(|e| StorageError::io("preallocate", path, e))?;
    Ok(file)
}

/// Replay every segment under `dir` in order, stopping cleanly at the
/// first bad frame.
pub fn replay(dir: &Path) -> Result<WalReplay, StorageError> {
    let mut out = WalReplay::default();
    if !dir.is_dir() {
        return Ok(out);
    }
    for seq in segment_seqs(dir)? {
        out.segments += 1;
        let scan = scan_segment(&segment_path(dir, seq))?;
        out.records.extend(scan.records);
        if scan.torn {
            out.torn_tail = true;
            break;
        }
    }
    Ok(out)
}

impl Wal {
    /// Open the WAL under `dir`, sealing the previous run's final segment
    /// at its logical length (which repairs a torn tail) and starting a
    /// fresh, preallocated active segment.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<Wal, StorageError> {
        Ok(Wal::recover(dir, segment_bytes)?.0)
    }

    /// [`Wal::open`], also returning every record the previous runs made
    /// durable, in order — what [`replay`] reads before the repair, from the
    /// same single scan of each segment. A torn frame is tolerated only at
    /// the tail of the final segment (`torn_tail`); anywhere else it is
    /// [`StorageError::Corrupt`].
    pub fn recover(dir: &Path, segment_bytes: u64) -> Result<(Wal, WalReplay), StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("mkdir", dir, e))?;
        let seqs = segment_seqs(dir)?;
        let mut index = BTreeMap::new();
        let mut replayed = WalReplay::default();
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(dir, seq);
            let scan = scan_segment(&path)?;
            if scan.torn && i + 1 < seqs.len() {
                return Err(StorageError::Corrupt {
                    path: path.display().to_string(),
                    detail: format!(
                        "bad frame at offset {} in a sealed segment",
                        scan.logical_len
                    ),
                });
            }
            if scan.logical_len < scan.file_len {
                // The segment the previous run left active: cut the torn
                // frame, if any, and the zero tail, so later replays see
                // only whole frames and the segment is sealed like any other.
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| StorageError::io("open", &path, e))?;
                file.set_len(scan.logical_len)
                    .map_err(|e| StorageError::io("truncate", &path, e))?;
            }
            let mut seg_index = SegmentIndex::new();
            for rec in &scan.records {
                let slot = seg_index.entry(rec.group()).or_insert(LogPosition::ZERO);
                *slot = (*slot).max(rec.position());
            }
            index.insert(seq, seg_index);
            replayed.segments += 1;
            replayed.records.extend(scan.records);
            replayed.torn_tail = scan.torn;
        }
        let active_seq = seqs.last().map_or(1, |last| last + 1);
        let active = create_segment(&segment_path(dir, active_seq), segment_bytes)?;
        let wal = Wal {
            dir: dir.to_path_buf(),
            segment_bytes,
            active,
            active_seq,
            active_len: 0,
            pending: Vec::new(),
            pending_count: 0,
            pending_max: SegmentIndex::new(),
            index,
            fault: FaultPlan::default(),
            records_synced: 0,
            syncs: 0,
        };
        Ok((wal, replayed))
    }

    /// Buffer one record for the next [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) {
        let frame = begin_frame(&mut self.pending);
        record.encode_into(&mut self.pending);
        finish_frame(&mut self.pending, frame);
        self.pending_count += 1;
        let slot = self
            .pending_max
            .entry(record.group())
            .or_insert(LogPosition::ZERO);
        *slot = (*slot).max(record.position());
    }

    /// Group commit: write every buffered record and `fsync` once. Returns
    /// the number of records made durable. On failure the buffer is kept —
    /// the records are not durable and MUST NOT be acknowledged, but a
    /// later successful sync may still persist them.
    pub fn sync(&mut self) -> Result<u64, StorageError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let path = segment_path(&self.dir, self.active_seq);
        if self.fault.take_sync_failure() {
            return Err(StorageError::SyncFailed {
                path: path.display().to_string(),
                injected: true,
            });
        }
        // At the logical length, wherever an earlier failed write left the
        // cursor: inside the preallocation this overwrites zeros, past it
        // the file grows.
        self.active
            .seek(SeekFrom::Start(self.active_len))
            .and_then(|_| self.active.write_all(&self.pending))
            .map_err(|e| StorageError::io("write", &path, e))?;
        self.active
            .sync_data()
            .map_err(|_| StorageError::SyncFailed {
                path: path.display().to_string(),
                injected: false,
            })?;
        self.active_len += self.pending.len() as u64;
        let count = self.pending_count;
        self.records_synced += count;
        self.syncs += 1;
        let seg_index = self.index.entry(self.active_seq).or_default();
        for (group, pos) in std::mem::take(&mut self.pending_max) {
            let slot = seg_index.entry(group).or_insert(LogPosition::ZERO);
            *slot = (*slot).max(pos);
        }
        self.pending.clear();
        self.pending_count = 0;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(count)
    }

    /// Seal the active segment at its logical length — a sealed segment is
    /// exactly its frames — and start the next preallocated one.
    fn rotate(&mut self) -> Result<(), StorageError> {
        let sealed = segment_path(&self.dir, self.active_seq);
        self.active
            .set_len(self.active_len)
            .map_err(|e| StorageError::io("truncate", &sealed, e))?;
        self.active_seq += 1;
        self.active = create_segment(
            &segment_path(&self.dir, self.active_seq),
            self.segment_bytes,
        )?;
        self.active_len = 0;
        Ok(())
    }

    /// Delete every sealed segment whose records all fall strictly below
    /// the per-group truncation floors. A segment containing a group with
    /// no floor entry is never deleted. Returns segments removed.
    pub fn truncate_below(
        &mut self,
        floors: &BTreeMap<GroupId, LogPosition>,
    ) -> Result<usize, StorageError> {
        let sealed: Vec<u64> = self
            .index
            .keys()
            .copied()
            .filter(|&seq| seq < self.active_seq)
            .collect();
        let mut removed = 0;
        for seq in sealed {
            let deletable = self.index[&seq]
                .iter()
                .all(|(group, max)| floors.get(group).is_some_and(|floor| *max < *floor));
            if !deletable {
                continue;
            }
            let path = segment_path(&self.dir, seq);
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(StorageError::io("remove", &path, e)),
            }
            self.index.remove(&seq);
            removed += 1;
        }
        Ok(removed)
    }

    /// Leave a torn partial frame at the logical tail of the active
    /// segment, as a crash mid-append would. The torn bytes are below any
    /// unsynced buffered records, so nothing durable is lost.
    pub fn inject_torn_tail(&mut self) -> Result<(), StorageError> {
        // No rotation: the tear must sit behind the last record of the
        // final segment, exactly where a real crash leaves it, so the next
        // open can repair it. The handle is assumed dead after this call
        // (the simulated machine crashed).
        let path = segment_path(&self.dir, self.active_seq);
        crate::fault::write_torn_frame(&mut self.active, self.active_len, &path)
    }

    /// Mutable access to the fault-injection plan.
    pub fn fault_mut(&mut self) -> &mut FaultPlan {
        &mut self.fault
    }

    /// Directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the active segment.
    pub fn active_segment(&self) -> u64 {
        self.active_seq
    }

    /// Total records made durable over this handle's lifetime.
    pub fn records_synced(&self) -> u64 {
        self.records_synced
    }

    /// Number of `fsync` calls issued (each may cover many records).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Whether a sealed segment (any below the active one) still holds a
    /// record of `group`. Only then can raising the group's truncation
    /// floor let [`Wal::truncate_below`] delete a segment: the active one is
    /// never deleted.
    pub fn holds_sealed(&self, group: GroupId) -> bool {
        self.index
            .range(..self.active_seq)
            .any(|(_, segment)| segment.contains_key(&group))
    }

    /// Number of segments currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        // The active segment may not be in the index yet (no sync).
        self.index.len() + usize::from(!self.index.contains_key(&self.active_seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use walog::{AttrId, ItemRef, KeyId, Transaction, TxnId};

    fn entry(seq: u64) -> Arc<LogEntry> {
        let txn = Transaction::builder(TxnId::new(7, seq), GroupId(0), LogPosition::ZERO)
            .write(ItemRef::new(KeyId(1), AttrId(2)), format!("v{seq}"))
            .build();
        Arc::new(LogEntry::single(txn))
    }

    fn promise(g: u32, p: u64, round: u64) -> WalRecord {
        WalRecord::Promise {
            group: GroupId(g),
            position: LogPosition(p),
            ballot: Ballot { round, proposer: 3 },
        }
    }

    fn decided(g: u32, p: u64) -> WalRecord {
        WalRecord::Decided {
            group: GroupId(g),
            position: LogPosition(p),
            entry: entry(p),
        }
    }

    #[test]
    fn record_codec_roundtrips() {
        let records = vec![
            promise(2, 9, 4),
            WalRecord::Vote {
                group: GroupId(1),
                position: LogPosition(5),
                ballot: Ballot {
                    round: 0,
                    proposer: 2,
                },
                entry: entry(11),
            },
            decided(0, 1),
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
        }
        assert!(WalRecord::decode(b"X 1 2").is_none());
        assert!(WalRecord::decode(b"P 1").is_none());
    }

    /// The on-disk format does not move: one framed record of each kind,
    /// byte for byte as the `format!`-based codec before PR 23 wrote it.
    #[test]
    fn framed_records_match_their_golden_bytes() {
        let vote = WalRecord::Vote {
            group: GroupId(1),
            position: LogPosition(5),
            ballot: Ballot {
                round: 0,
                proposer: 2,
            },
            entry: entry(11),
        };
        let golden: [(WalRecord, [u8; 8], &str); 3] = [
            (promise(2, 9, 4), [9, 0, 0, 0, 41, 1, 101, 224], "P 2 9 4:3"),
            (
                vote,
                [43, 0, 0, 0, 242, 212, 57, 127],
                "V 1 5 0:2 30:LE1 0 1 7 11 0 0 0 1 1 2 3:v11",
            ),
            (
                decided(0, 1),
                [37, 0, 0, 0, 235, 196, 84, 244],
                "D 0 1 28:LE1 0 1 7 1 0 0 0 1 1 2 2:v1",
            ),
        ];
        let dir = TempDir::new("wal-golden");
        let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
        let mut expected = Vec::new();
        for (record, header, payload) in &golden {
            assert_eq!(record.encode(), payload.as_bytes());
            wal.append(record);
            expected.extend_from_slice(header);
            expected.extend_from_slice(payload.as_bytes());
        }
        wal.sync().unwrap();
        let on_disk = std::fs::read(segment_path(dir.path(), 1)).unwrap();
        assert_eq!(on_disk[..expected.len()], expected[..]);
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = TempDir::new("wal-roundtrip");
        let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
        wal.append(&promise(0, 1, 1));
        wal.append(&decided(0, 1));
        assert_eq!(wal.sync().unwrap(), 2);
        wal.append(&decided(1, 1));
        assert_eq!(wal.sync().unwrap(), 1);
        assert_eq!(wal.syncs(), 2);
        let replayed = replay(dir.path()).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.records.len(), 3);
        assert_eq!(replayed.records[0], promise(0, 1, 1));
    }

    #[test]
    fn unsynced_records_are_not_replayed() {
        let dir = TempDir::new("wal-unsynced");
        let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
        wal.append(&decided(0, 1));
        wal.sync().unwrap();
        wal.append(&decided(0, 2)); // never synced
        let replayed = replay(dir.path()).unwrap();
        assert_eq!(replayed.records.len(), 1);
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let dir = TempDir::new("wal-rotate");
        let mut wal = Wal::open(dir.path(), 64).unwrap();
        for p in 1..=8 {
            wal.append(&decided(0, p));
            wal.sync().unwrap();
        }
        assert!(wal.active_segment() > 1, "small segments must rotate");
        let replayed = replay(dir.path()).unwrap();
        assert_eq!(replayed.records.len(), 8);
        assert!(replayed.segments > 1);
    }

    #[test]
    fn replay_stops_cleanly_at_a_torn_tail() {
        let dir = TempDir::new("wal-torn");
        let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
        wal.append(&decided(0, 1));
        wal.append(&decided(0, 2));
        wal.sync().unwrap();
        crate::fault::tear_tail(&segment_path(dir.path(), wal.active_segment())).unwrap();
        let replayed = replay(dir.path()).unwrap();
        assert!(replayed.torn_tail);
        assert_eq!(replayed.records.len(), 2, "records above the tear survive");
    }

    #[test]
    fn replay_stops_cleanly_at_a_short_read() {
        let dir = TempDir::new("wal-short");
        let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
        wal.append(&decided(0, 1));
        wal.append(&decided(0, 2));
        wal.sync().unwrap();
        // Drop the final few bytes: the last frame comes back short.
        crate::fault::shorten_tail(&segment_path(dir.path(), wal.active_segment()), 3).unwrap();
        let replayed = replay(dir.path()).unwrap();
        assert!(replayed.torn_tail);
        assert_eq!(replayed.records.len(), 1);
    }

    #[test]
    fn reopen_repairs_the_torn_tail() {
        let dir = TempDir::new("wal-repair");
        {
            let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
            wal.append(&decided(0, 1));
            wal.sync().unwrap();
            wal.inject_torn_tail().unwrap();
        }
        // Reopen: the scan that repairs the tail reads what replay reads,
        // torn flag included; the torn bytes are truncated away and a fresh
        // segment starts, so a second replay is clean.
        let before = replay(dir.path()).unwrap();
        let (wal, recovered) = Wal::recover(dir.path(), 1 << 20).unwrap();
        assert_eq!(recovered.records, before.records);
        assert!(recovered.torn_tail && before.torn_tail);
        assert_eq!(recovered.segments, before.segments);
        let replayed = replay(dir.path()).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.records.len(), 1);
        drop(wal);
    }

    #[test]
    fn injected_sync_failure_is_typed_and_recoverable() {
        let dir = TempDir::new("wal-syncfail");
        let mut wal = Wal::open(dir.path(), 1 << 20).unwrap();
        wal.append(&decided(0, 1));
        wal.fault_mut().fail_next_syncs(1);
        match wal.sync() {
            Err(StorageError::SyncFailed { injected: true, .. }) => {}
            other => panic!("expected injected SyncFailed, got {other:?}"),
        }
        // The record stayed buffered; the next sync persists it.
        assert_eq!(wal.sync().unwrap(), 1);
        assert_eq!(replay(dir.path()).unwrap().records.len(), 1);
    }

    #[test]
    fn truncation_deletes_only_fully_covered_sealed_segments() {
        let dir = TempDir::new("wal-trunc");
        let mut wal = Wal::open(dir.path(), 32).unwrap();
        for p in 1..=6 {
            wal.append(&decided(0, p));
            wal.sync().unwrap(); // tiny segments: one record each
        }
        let before = segment_seqs(dir.path()).unwrap().len();
        let mut floors = BTreeMap::new();
        floors.insert(GroupId(0), LogPosition(4));
        let removed = wal.truncate_below(&floors).unwrap();
        assert!(removed >= 1, "segments below the floor are deleted");
        assert!(segment_seqs(dir.path()).unwrap().len() < before);
        let replayed = replay(dir.path()).unwrap();
        assert!(replayed.records.iter().all(|r| r.position().0 >= 4));
        // A group with no floor pins its segments.
        wal.append(&decided(1, 1));
        wal.sync().unwrap();
        wal.append(&decided(0, 9));
        wal.sync().unwrap();
        let mut only_g0 = BTreeMap::new();
        only_g0.insert(GroupId(0), LogPosition(100));
        wal.truncate_below(&only_g0).unwrap();
        let replayed = replay(dir.path()).unwrap();
        assert!(
            replayed.records.iter().any(|r| r.group() == GroupId(1)),
            "segment holding group 1 must survive"
        );
    }
}
