//! Frame-format edge cases: zero-length and maximum-length payloads,
//! and the distinction that matters for replication — a frame whose
//! declared length overruns its segment must surface as `Corrupt` when
//! sealed records follow (silent truncation would drop committed
//! history), but as a truncatable torn tail at the very end of the log.
#![cfg(feature = "persistence")]

use std::path::PathBuf;

use ode_core::Value;
use ode_db::durability::frame;
use ode_db::{DiskWal, FsyncPolicy, LogOp, SegmentReader, SharedIo, StdIo, WalConfig, WalError};

fn std_io() -> SharedIo {
    SharedIo::new(StdIo::new())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-frame-edges-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn zero_length_payload_round_trips() {
    let rec = frame::encode(b"");
    assert_eq!(rec.len(), frame::HEADER_LEN, "empty payload is header-only");
    let (payloads, tail) = frame::decode_all(&rec).unwrap();
    assert_eq!(tail, frame::Tail::Clean);
    assert_eq!(payloads, vec![Vec::<u8>::new()]);

    // An empty frame between non-empty neighbors must not desync the
    // scan.
    let mut stream = frame::encode(b"before");
    stream.extend_from_slice(&rec);
    stream.extend_from_slice(&frame::encode(b"after"));
    let (payloads, tail) = frame::decode_all(&stream).unwrap();
    assert_eq!(tail, frame::Tail::Clean);
    assert_eq!(payloads.len(), 3);
    assert_eq!(payloads[1], Vec::<u8>::new());
}

#[test]
fn max_length_payload_round_trips() {
    let payload = vec![0xA5u8; frame::MAX_FRAME as usize];
    let rec = frame::encode(&payload);
    assert_eq!(rec.len(), frame::HEADER_LEN + payload.len());
    let (payloads, tail) = frame::decode_all(&rec).unwrap();
    assert_eq!(tail, frame::Tail::Clean);
    assert_eq!(payloads.len(), 1);
    assert_eq!(payloads[0], payload);
}

#[test]
#[should_panic(expected = "frame payload too large")]
fn over_max_payload_refuses_to_encode() {
    let _ = frame::encode(&vec![0u8; frame::MAX_FRAME as usize + 1]);
}

/// A frame whose header declares more bytes than the file holds. The
/// CRC itself is valid — the frame was written whole and cut later —
/// so only the length/EOF relationship can reveal the damage.
fn overrunning_frame() -> Vec<u8> {
    let full = frame::encode(&vec![b'x'; 1000]);
    full[..frame::HEADER_LEN + 10].to_vec()
}

#[test]
fn declared_length_overrunning_an_interior_segment_is_corrupt() {
    let dir = tmp_dir("overrun-interior");
    std::fs::create_dir_all(&dir).unwrap();
    // Segment 0: one clean record, then a frame cut short of its
    // declared length. Segment 1: a clean record — so the overrun sits
    // in the log's interior, where a single crash cannot explain it.
    let mut seg0 = frame::encode(b"{\"AdvanceClock\":{\"to\":1}}");
    seg0.extend_from_slice(&overrunning_frame());
    std::fs::write(dir.join("segment-0000000000-00000.wal"), &seg0).unwrap();
    std::fs::write(
        dir.join("segment-0000000000-00001.wal"),
        frame::encode(b"{\"AdvanceClock\":{\"to\":2}}"),
    )
    .unwrap();

    // The scan must refuse loudly — not panic, not silently drop the
    // sealed records after the damage.
    match SegmentReader::scan(&dir, &std_io()) {
        Err(WalError::Corrupt(msg)) => {
            assert!(msg.contains("torn frame"), "names the damage: {msg}")
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("an interior overrun must not scan cleanly"),
    }
    // Recovery goes through the same scan and must refuse identically.
    match DiskWal::open(&dir, WalConfig::default(), std_io()) {
        Err(WalError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("an interior overrun must not recover"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn declared_length_overrunning_the_final_segment_is_a_torn_tail() {
    let dir = tmp_dir("overrun-final");
    std::fs::create_dir_all(&dir).unwrap();
    let keep = frame::encode(b"{\"AdvanceClock\":{\"to\":1}}");
    let mut seg0 = keep.clone();
    seg0.extend_from_slice(&overrunning_frame());
    std::fs::write(dir.join("segment-0000000000-00000.wal"), &seg0).unwrap();

    let scan = SegmentReader::scan(&dir, &std_io()).unwrap();
    assert_eq!(scan.records.len(), 1, "the clean prefix survives");
    let torn = scan.torn.expect("the overrun is a torn tail");
    assert_eq!(torn.offset, keep.len() as u64);

    // Recovery truncates it; the next recovery is clean.
    let (_, recovery) = DiskWal::open(&dir, WalConfig::default(), std_io()).unwrap();
    assert!(recovery.truncated_tail);
    assert_eq!(recovery.ops.len(), 1);
    let (_, again) = DiskWal::open(&dir, WalConfig::default(), std_io()).unwrap();
    assert!(!again.truncated_tail);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn records_from_iterates_across_segment_rotation() {
    let dir = tmp_dir("tailing");
    let cfg = WalConfig {
        segment_bytes: 128,
        fsync: FsyncPolicy::commit(),
        archive: false,
    };
    let (wal, _) = DiskWal::open(&dir, cfg, std_io()).unwrap();
    let ops: Vec<LogOp> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                LogOp::Commit { txn: i / 3 }
            } else if i % 3 == 0 {
                LogOp::Begin {
                    txn: i / 3,
                    user: Value::Str("alice".into()),
                }
            } else {
                LogOp::AdvanceClock { to: i * 100 }
            }
        })
        .collect();
    for op in &ops {
        wal.append(op).unwrap();
    }
    assert_eq!(wal.lsn(), 12);
    wal.sync().unwrap();
    drop(wal);

    let scan = SegmentReader::scan(&dir, &std_io()).unwrap();
    assert!(
        scan.segments.len() > 1,
        "128-byte segments force rotation: {:?}",
        scan.segments
    );
    assert_eq!(scan.base_lsn, 0);
    assert_eq!(scan.head_lsn(), 12);
    assert!(scan.torn.is_none());

    // Tailing from an arbitrary LSN crosses segment boundaries
    // transparently and yields exactly the suffix, correctly numbered.
    for from in [0u64, 5, 11, 12, 40] {
        let got: Vec<(u64, String)> = scan
            .records_from(from)
            .map(|(lsn, p)| (lsn, String::from_utf8(p.to_vec()).unwrap()))
            .collect();
        let want_start = from.min(12) as usize;
        assert_eq!(got.len(), 12 - want_start);
        for (i, (lsn, line)) in got.iter().enumerate() {
            let want = want_start + i;
            assert_eq!(*lsn, want as u64);
            assert_eq!(line, &ops[want].to_json_line().unwrap());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
