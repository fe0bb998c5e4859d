//! Crash-shape matrix for preallocated WAL segments — enumerated, not
//! sampled: every number of synced records k ∈ {0, 1, 5} × every shape the
//! bytes behind them can take when the process dies. In every cell replay
//! returns exactly the synced prefix with the right `torn_tail`, and
//! `Wal::open` seals the old segment at its logical length, starts a fresh
//! preallocated one and leaves a log that replays clean and keeps growing.

use paxos::Ballot;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use storage::frame::{append_frame, FRAME_HEADER};
use storage::wal::{self, Wal, WalRecord};
use storage::{fault, StorageError};
use walog::{GroupId, LogPosition};

/// Bytes `fault::tear_tail` leaves: a header and five bytes of payload.
const TEAR_BYTES: u64 = FRAME_HEADER as u64 + 5;

fn record(position: u64) -> WalRecord {
    WalRecord::Promise {
        group: GroupId(0),
        position: LogPosition(position),
        ballot: Ballot {
            round: 1,
            proposer: 1,
        },
    }
}

fn framed(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        append_frame(&mut out, &record.encode());
    }
    out
}

fn segment(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.seg"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// What lies behind the k synced records when the process dies.
#[derive(Clone, Copy, Debug)]
enum Tail {
    /// Nothing but the preallocated zeros.
    ZerosOnly,
    /// A torn frame at the logical tail, zeros behind it.
    TornFrame,
    /// One more synced record, of which the last `n` bytes never arrived.
    FinalRecordShortBy(u64),
    /// One more synced record, of which only the header arrived.
    FinalRecordHeaderOnly,
    /// The preallocation ends fewer than a frame header's bytes past the
    /// records: the zero tail is too short to hold even a header.
    ZeroTailShorterThanAHeader,
    /// One more sync, larger than what is left of the preallocation: the
    /// file grows, the record is durable and the segment rotates.
    SyncOutgrowsThePreallocation,
    /// A torn frame with a structurally valid frame directly behind it.
    ValidFrameBehindTheTear,
}

const TAILS: [Tail; 8] = [
    Tail::ZerosOnly,
    Tail::TornFrame,
    Tail::FinalRecordShortBy(1),
    Tail::FinalRecordShortBy(3),
    Tail::FinalRecordHeaderOnly,
    Tail::ZeroTailShorterThanAHeader,
    Tail::SyncOutgrowsThePreallocation,
    Tail::ValidFrameBehindTheTear,
];

fn run_case(k: u64, tail: Tail) {
    let case = format!("k = {k}, {tail:?}");
    let dir = storage::scratch_dir("crash-shape");
    let synced: Vec<WalRecord> = (1..=k).map(record).collect();
    let synced_bytes = framed(&synced).len() as u64;
    let victim = record(k + 1);
    let victim_bytes = framed(std::slice::from_ref(&victim)).len() as u64;
    let segment_bytes = match tail {
        Tail::ZeroTailShorterThanAHeader | Tail::SyncOutgrowsThePreallocation => synced_bytes + 5,
        _ => 1 << 16,
    };

    let mut w = Wal::open(&dir, segment_bytes).unwrap();
    // One sync per record: the smallest batch a sync of held
    // acknowledgements covers.
    for record in &synced {
        w.append(record);
        assert_eq!(w.sync().unwrap(), 1, "{case}");
    }
    let first = segment(&dir, 1);
    assert_eq!(file_len(&first), segment_bytes, "{case}: preallocated");
    let mut expected = synced.clone();
    let mut expect_torn = true;
    match tail {
        Tail::ZerosOnly | Tail::ZeroTailShorterThanAHeader => expect_torn = false,
        Tail::TornFrame | Tail::ValidFrameBehindTheTear => {}
        Tail::FinalRecordShortBy(_) | Tail::FinalRecordHeaderOnly => {
            w.append(&victim);
            w.sync().unwrap();
        }
        Tail::SyncOutgrowsThePreallocation => {
            w.append(&victim);
            w.sync().unwrap();
            expected.push(victim.clone());
            expect_torn = false;
            assert_eq!(w.active_segment(), 2, "{case}: the full segment rotates");
            assert_eq!(
                file_len(&first),
                synced_bytes + victim_bytes,
                "{case}: the file grew past its preallocation and was sealed at its frames"
            );
        }
    }
    // Buffered but never synced: must not survive in any cell.
    w.append(&record(1_000));
    match tail {
        Tail::TornFrame | Tail::ValidFrameBehindTheTear => w.inject_torn_tail().unwrap(),
        _ => {}
    }
    let last_seq = w.active_segment();
    drop(w);
    match tail {
        Tail::FinalRecordShortBy(n) => fault::shorten_tail(&first, n).unwrap(),
        Tail::FinalRecordHeaderOnly => {
            fault::shorten_tail(&first, victim_bytes - FRAME_HEADER as u64).unwrap()
        }
        Tail::ValidFrameBehindTheTear => {
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .open(&first)
                .unwrap();
            file.seek(SeekFrom::Start(synced_bytes + TEAR_BYTES))
                .unwrap();
            file.write_all(&framed(&[record(99)])).unwrap();
        }
        _ => {}
    }

    let replay = wal::replay(&dir).unwrap();
    assert_eq!(
        replay.records, expected,
        "{case}: exactly the synced prefix"
    );
    assert_eq!(replay.torn_tail, expect_torn, "{case}");

    // Reopen: the old final segment is cut to its logical length, a fresh
    // preallocated segment starts, and the log replays clean and grows on.
    let mut w = Wal::open(&dir, segment_bytes).unwrap();
    assert_eq!(w.active_segment(), last_seq + 1, "{case}");
    assert_eq!(
        file_len(&segment(&dir, last_seq + 1)),
        segment_bytes,
        "{case}"
    );
    let expected_bytes = framed(&expected).len() as u64;
    let sealed_bytes: u64 = (1..=last_seq)
        .map(|seq| file_len(&segment(&dir, seq)))
        .sum();
    assert_eq!(
        sealed_bytes, expected_bytes,
        "{case}: sealed segments are exactly their frames"
    );
    let replay = wal::replay(&dir).unwrap();
    assert_eq!(replay.records, expected, "{case}: after repair");
    assert!(!replay.torn_tail, "{case}: after repair");
    let next = record(k + 2);
    w.append(&next);
    w.sync().unwrap();
    expected.push(next);
    assert_eq!(wal::replay(&dir).unwrap().records, expected, "{case}");
    storage::remove_scratch_dir(&dir);
}

#[test]
fn crash_shape_matrix_replays_exactly_the_synced_prefix() {
    for k in [0, 1, 5] {
        for tail in TAILS {
            run_case(k, tail);
        }
    }
}

/// The tolerance is for the final segment only: a bad frame in a sealed,
/// non-final segment is not a crash artifact and must stay a typed error.
#[test]
fn a_bad_frame_in_a_sealed_segment_is_still_corrupt() {
    let dir = storage::scratch_dir("crash-shape-sealed");
    let mut w = Wal::open(&dir, 32).unwrap();
    for p in 1..=4 {
        w.append(&record(p));
        w.sync().unwrap(); // two records fill a segment
    }
    assert!(w.active_segment() >= 3);
    drop(w);
    let first = segment(&dir, 1);
    let mut bytes = std::fs::read(&first).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&first, bytes).unwrap();
    match Wal::open(&dir, 32) {
        Err(StorageError::Corrupt { path, .. }) => assert!(path.ends_with("wal-000001.seg")),
        other => panic!("expected Corrupt for the sealed segment, got {other:?}"),
    }
    storage::remove_scratch_dir(&dir);
}
