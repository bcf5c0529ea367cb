//! Model-based property test for SSTable block lookups: point gets and
//! seeks must agree with a `BTreeMap` over the same rows, for tables cut
//! into many small blocks (some holding a single entry), both reading
//! through the VFS on every lookup and serving from a block cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::vfs::{MemVfs, SharedVfs};
use spinnaker_common::{ColumnValue, Key, Lsn, Row};
use spinnaker_storage::{BlockCache, Table, TableBuilder, TableCtx, TableOptions};

type Model = BTreeMap<Key, Row>;

/// Keys of mixed lengths over a small alphabet, so that prefixes and
/// near neighbours of stored keys are common probes.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(b'a'..=b'd', 1..12)
}

/// One column per spec: a value of random length, maybe a tombstone
/// head, and a short MVCC chain.
fn row_of(cols: &[(u8, bool, Vec<u8>, u64)]) -> Row {
    let mut row = Row::new();
    for (i, (col, tombstone, value, chain)) in cols.iter().enumerate() {
        let name = Bytes::from(vec![*col]);
        for v in 0..=*chain {
            let lsn = Lsn::new(1, 10 * i as u64 + v + 1);
            let cv = if *tombstone && v == *chain {
                ColumnValue::deleted(lsn, v)
            } else {
                ColumnValue::live(Bytes::from(value.clone()), lsn, v)
            };
            row.apply_version(name.clone(), cv);
        }
    }
    row
}

fn build(model: &Model, block_bytes: usize, ctx: TableCtx) -> Table {
    let vfs: SharedVfs = Arc::new(MemVfs::new());
    let opts = TableOptions { block_bytes, bloom_bits_per_key: 10 };
    let mut b = TableBuilder::new_with(vfs, "sst/model", opts, ctx).unwrap();
    for (key, row) in model {
        b.add(key, row).unwrap();
    }
    b.finish().unwrap()
}

/// Absent probes: below the minimum, between every pair of neighbours,
/// and above the maximum.
fn absent_probes(model: &Model) -> Vec<Key> {
    let keys: Vec<&Key> = model.keys().collect();
    let mut probes = vec![Key::from(""), Key::from("A")];
    let min = keys[0].as_bytes();
    probes.push(Key::from(&min[..min.len() - 1]));
    for k in &keys {
        let mut next = k.as_bytes().to_vec();
        next.push(0);
        probes.push(Key::from(next));
    }
    let mut above = keys[keys.len() - 1].as_bytes().to_vec();
    above.push(0xff);
    probes.push(Key::from(above));
    probes.push(Key::from("e"));
    probes.retain(|p| !model.contains_key(p));
    probes
}

fn check(table: &Table, model: &Model, probes: &[Key], cursors: &[Key]) {
    for (key, row) in model {
        assert_eq!(table.get_unfiltered(key).unwrap().as_ref(), Some(row), "get {key:?}");
    }
    for probe in absent_probes(model).iter().chain(probes) {
        assert_eq!(
            table.get_unfiltered(probe).unwrap().as_ref(),
            model.get(probe),
            "get {probe:?}"
        );
    }
    for cursor in cursors {
        let got: Vec<(Key, Row)> = table.iter_from(cursor).map(|r| r.unwrap()).collect();
        let want: Vec<(Key, Row)> =
            model.range(cursor.clone()..).map(|(k, r)| (k.clone(), r.clone())).collect();
        assert_eq!(got, want, "iter_from {cursor:?}");
    }
    let all: Vec<(Key, Row)> = table.iter().map(|r| r.unwrap()).collect();
    assert_eq!(all.len(), model.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_block_lookups_match_the_model(
        rows in proptest::collection::btree_map(
            key_strategy(),
            proptest::collection::vec(
                (b'a'..=b'c', any::<bool>(), proptest::collection::vec(any::<u8>(), 0..80), 0u64..3),
                1..3,
            ),
            1..80,
        ),
        block_bytes in 64usize..=512,
        probes in proptest::collection::vec(key_strategy(), 0..16),
        cursors in proptest::collection::vec(key_strategy(), 0..8),
    ) {
        let model: Model =
            rows.iter().map(|(k, cols)| (Key::from(k.clone()), row_of(cols))).collect();
        let probes: Vec<Key> = probes.into_iter().map(Key::from).collect();
        let mut cursors: Vec<Key> = cursors.into_iter().map(Key::from).collect();
        cursors.extend(model.keys().step_by(7).cloned());

        // Miss path: every lookup reads and indexes its block afresh.
        let uncached = build(&model, block_bytes, TableCtx::default());
        check(&uncached, &model, &probes, &cursors);

        // Hit path: the second pass is served from the cache.
        let ctx = TableCtx { cache: Some(Arc::new(BlockCache::new(1 << 20))), ..Default::default() };
        let metrics = ctx.metrics.clone();
        let cached = build(&model, block_bytes, ctx);
        check(&cached, &model, &probes, &cursors);
        let reads = metrics.block_reads();
        check(&cached, &model, &probes, &cursors);
        prop_assert_eq!(metrics.block_reads(), reads, "second pass read no block");
        prop_assert!(metrics.hits() > 0);
    }
}
