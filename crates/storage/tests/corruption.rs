//! Crash-safety regression tests for SSTable/manifest loading (rule C1).
//!
//! A bit-flipped table file or manifest must be rejected with a typed
//! [`Error`] — `Table::open`, `RangeStore::open`, and the read path must
//! never panic on hostile bytes, and a corrupt length prefix must never
//! drive a huge allocation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spinnaker_common::codec::{self, Encode};
use spinnaker_common::vfs::{MemVfs, Vfs};
use spinnaker_common::{crc32c, op, Error, Key, Lsn, Row};
use spinnaker_storage::{
    BlockCache, RangeStore, StoreOptions, Table, TableBuilder, TableCtx, TableOptions,
};

fn small_table(vfs: &MemVfs, path: &str) -> Vec<Key> {
    // Tiny blocks so the table has several data blocks + index + bloom.
    let opts = TableOptions { block_bytes: 128, bloom_bits_per_key: 10 };
    let mut b = TableBuilder::new(Arc::new(vfs.clone()), path, opts).unwrap();
    let mut keys = Vec::new();
    for i in 0..24u64 {
        let key = Key::from(format!("user{i:04}").as_str());
        let mut row = Row::new();
        op::put(&format!("user{i:04}"), "col", &format!("value-{i}"))
            .apply_to_row(&mut row, Lsn::new(1, i + 1));
        b.add(&key, &row).unwrap();
        keys.push(key);
    }
    b.finish().unwrap();
    keys
}

#[test]
fn every_single_byte_flip_is_rejected_or_survived_never_a_panic() {
    let vfs = MemVfs::new();
    let keys = small_table(&vfs, "t/sst-a");
    let pristine = vfs.read_all("t/sst-a").unwrap();

    let mut opened_ok = 0usize;
    let mut rejected = 0usize;
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        vfs.write_atomic("t/sst-a", &bytes).unwrap();

        let vfs2 = vfs.clone();
        let keys = keys.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            match Table::open(Arc::new(vfs2.clone()), "t/sst-a") {
                // Flips inside a data block are only detectable when the
                // block is read: every lookup must still return cleanly.
                Ok(table) => {
                    for key in &keys {
                        let _ = table.get(key);
                    }
                    let _ = table.scan(&keys[0], None);
                    true
                }
                Err(_) => false,
            }
        }));
        match outcome {
            Ok(true) => opened_ok += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("byte flip at offset {off} caused a panic"),
        }
    }
    // The trailer and footer are always load-bearing, so a healthy share
    // of flips must be caught right at open.
    assert!(rejected > 0, "no flip was ever rejected ({opened_ok} opened)");
}

#[test]
fn trailer_flips_fail_table_open_with_a_typed_error() {
    let vfs = MemVfs::new();
    small_table(&vfs, "t/sst-b");
    let pristine = vfs.read_all("t/sst-b").unwrap();

    // The last 16 bytes are the trailer: footer offset + magic. Any
    // damage there must be caught at open, not deferred to a read.
    for back in 0..16 {
        let mut bytes = pristine.clone();
        let off = bytes.len() - 1 - back;
        bytes[off] ^= 0x80;
        vfs.write_atomic("t/sst-b", &bytes).unwrap();
        let res = Table::open(Arc::new(vfs.clone()), "t/sst-b");
        assert!(res.is_err(), "trailer flip {back} bytes from the end was accepted");
    }
}

#[test]
fn truncated_table_is_rejected() {
    let vfs = MemVfs::new();
    small_table(&vfs, "t/sst-c");
    let pristine = vfs.read_all("t/sst-c").unwrap();
    for keep in [0, 1, 15, pristine.len() / 2, pristine.len() - 1] {
        vfs.write_atomic("t/sst-c", &pristine[..keep]).unwrap();
        assert!(
            Table::open(Arc::new(vfs.clone()), "t/sst-c").is_err(),
            "table truncated to {keep} bytes was accepted"
        );
    }
}

fn store_opts() -> StoreOptions {
    StoreOptions { memtable_flush_bytes: 1, ..Default::default() }
}

/// A store directory with one flushed table and a manifest naming it.
fn seeded_store_vfs() -> MemVfs {
    let vfs = MemVfs::new();
    let mut store = RangeStore::open(Arc::new(vfs.clone()), store_opts()).unwrap();
    for i in 0..8u64 {
        store.apply(&op::put(&format!("k{i}"), "c", "v"), Lsn::new(1, i + 1));
    }
    store.flush().unwrap();
    vfs
}

#[test]
fn manifest_byte_flips_never_panic_the_store_open() {
    let vfs = seeded_store_vfs();
    let pristine = vfs.read_all("store/MANIFEST").unwrap();
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0xff;
        vfs.write_atomic("store/MANIFEST", &bytes).unwrap();
        let vfs2 = vfs.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            RangeStore::open(Arc::new(vfs2), store_opts()).is_ok()
        }));
        assert!(outcome.is_ok(), "manifest flip at offset {off} caused a panic");
    }
}

#[test]
fn absurd_manifest_table_count_is_a_typed_error_not_an_allocation() {
    let vfs = seeded_store_vfs();
    // next_id + gc_floor pass as garbage u64s, then the table-count
    // varint decodes to an enormous value the remaining input cannot
    // possibly back — get_varint_len must refuse before allocating.
    vfs.write_atomic("store/MANIFEST", &[0xff; 32]).unwrap();
    let res = RangeStore::open(Arc::new(vfs.clone()), store_opts());
    assert!(res.is_err(), "32 bytes of 0xff accepted as a manifest");
}

#[test]
fn manifest_without_the_magic_is_corruption() {
    let vfs = seeded_store_vfs();
    // The pre-leveling layout (next_id, gc_floor, bare table ids) naming
    // the real table: it no longer decodes, whatever it lists.
    let mut bytes = Vec::new();
    codec::put_u64(&mut bytes, 2);
    codec::put_u64(&mut bytes, u64::MAX);
    codec::put_varint(&mut bytes, 1);
    codec::put_u64(&mut bytes, 1);
    vfs.write_atomic("store/MANIFEST", &bytes).unwrap();
    match RangeStore::open(Arc::new(vfs.clone()), store_opts()) {
        Err(Error::Corruption(_)) => {}
        Err(e) => panic!("manifest without the magic failed as {e:?}, not corruption"),
        Ok(_) => panic!("manifest without the magic accepted"),
    }
}

#[test]
fn manifest_referencing_a_missing_table_is_a_typed_error() {
    let vfs = seeded_store_vfs();
    for path in vfs.list("store/sst-").unwrap() {
        vfs.delete(&path).unwrap();
    }
    assert!(RangeStore::open(Arc::new(vfs.clone()), store_opts()).is_err());
}

#[test]
fn flipped_sstable_magic_fails_the_store_open() {
    let vfs = seeded_store_vfs();
    let tables = vfs.list("store/sst-").unwrap();
    assert!(!tables.is_empty(), "flush produced no table");
    let mut bytes = vfs.read_all(&tables[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    vfs.write_atomic(&tables[0], &bytes).unwrap();
    assert!(RangeStore::open(Arc::new(vfs.clone()), store_opts()).is_err());
}

/// Overwrite the table's first data block (at offset 0) with `body`, which
/// must have the original body's length, and re-seal it with a matching
/// masked CRC: the block passes its checksum but its contents are
/// malformed.
fn reseal_first_block(vfs: &MemVfs, path: &str, body: &[u8]) {
    let mut bytes = vfs.read_all(path).unwrap();
    let crc = crc32c::masked(crc32c::crc32c(body));
    bytes[..body.len()].copy_from_slice(body);
    bytes[body.len()..body.len() + 4].copy_from_slice(&crc.to_le_bytes());
    vfs.write_atomic(path, &bytes).unwrap();
}

#[test]
fn malformed_block_with_a_valid_checksum_is_a_typed_error() {
    // Two rows in one data block at offset 0.
    let (ka, kb) = (Key::from("alpha"), Key::from("bravo"));
    let row = |k: &str, lsn| {
        let mut row = Row::new();
        op::put(k, "col", "some-value").apply_to_row(&mut row, Lsn::new(1, lsn));
        row
    };
    let (ra, rb) = (row("alpha", 1), row("bravo", 2));
    let mut entry_a = ka.encode_to_vec();
    ra.encode(&mut entry_a);
    let mut body = entry_a.clone();
    kb.encode(&mut body);
    rb.encode(&mut body);

    let vfs = MemVfs::new();
    let mut b =
        TableBuilder::new(Arc::new(vfs.clone()), "t/sst-m", TableOptions::default()).unwrap();
    b.add(&ka, &ra).unwrap();
    b.add(&kb, &rb).unwrap();
    b.finish().unwrap();
    let pristine = vfs.read_all("t/sst-m").unwrap();
    assert_eq!(&pristine[..body.len()], &body[..], "block layout as expected");
    let stored = u32::from_le_bytes(pristine[body.len()..body.len() + 4].try_into().unwrap());
    assert_eq!(stored, crc32c::masked(crc32c::crc32c(&body)));

    // 1. The second entry truncated mid-row: its key grows by the bytes
    //    its row loses, so the body keeps its length.
    let cut = 5;
    let mut long_key = kb.as_bytes().to_vec();
    long_key.extend_from_slice(&[b'x'; 5][..cut]);
    let mut truncated = entry_a.clone();
    Key::from(long_key).encode(&mut truncated);
    let rb_enc = rb.encode_to_vec();
    truncated.extend_from_slice(&rb_enc[..rb_enc.len() - cut]);
    assert_eq!(truncated.len(), body.len());

    // 2. A tombstone flag of 2 in the first entry's column: after the key,
    //    the column count, and the column name.
    let mut bad_flag = body.clone();
    let flag_at = ka.encode_to_vec().len() + 1 + 1 + b"col".len();
    assert_eq!(bad_flag[flag_at], 0, "live column flag");
    bad_flag[flag_at] = 2;

    // 3. The second key's length runs past the end of the body.
    let mut long_len = body.clone();
    long_len[entry_a.len()] = 0x7f;
    assert!(0x7f > body.len() - entry_a.len() - 1);

    for (what, malformed) in
        [("truncated row", truncated), ("tombstone flag 2", bad_flag), ("key length", long_len)]
    {
        reseal_first_block(&vfs, "t/sst-m", &malformed);
        for cache in [None, Some(Arc::new(BlockCache::new(1 << 20)))] {
            let ctx = TableCtx { cache, ..Default::default() };
            let table = Table::open_with(Arc::new(vfs.clone()), "t/sst-m", ctx).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for key in [&ka, &kb, &Key::from("bravo-x"), &Key::from("charlie")] {
                    // Twice: a failed read must not leave a block cached.
                    for _ in 0..2 {
                        let got = table.get_unfiltered(key);
                        assert!(got.is_err(), "{what}: get {key:?} returned {got:?}");
                    }
                }
                let scan = table.iter().collect::<spinnaker_common::Result<Vec<_>>>();
                assert!(scan.is_err(), "{what}: iter() returned {scan:?}");
                let seek = table.iter_from(&kb).collect::<spinnaker_common::Result<Vec<_>>>();
                assert!(seek.is_err(), "{what}: iter_from returned {seek:?}");
            }));
            assert!(outcome.is_ok(), "{what}: malformed block caused a panic");
        }
    }
}
