//! A table reads its blocks through the file handle it was opened with:
//! once `Table::open_with` returns, no point get or scan reopens the file
//! by path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spinnaker_common::vfs::{MemVfs, SharedVfs, Vfs, VfsFile};
use spinnaker_common::{op, Key, Lsn, Result, Row};
use spinnaker_storage::{Table, TableBuilder, TableCtx, TableOptions};

/// A [`MemVfs`] that counts `open` calls.
#[derive(Default)]
struct CountingVfs {
    inner: MemVfs,
    opens: AtomicUsize,
}

impl CountingVfs {
    fn opens(&self) -> usize {
        self.opens.load(Ordering::SeqCst)
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        self.inner.create(path)
    }

    fn open(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        self.opens.fetch_add(1, Ordering::SeqCst);
        self.inner.open(path)
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
}

fn row(i: u64) -> Row {
    let mut row = Row::new();
    op::put(&format!("user{i:04}"), "col", &format!("value-{i}"))
        .apply_to_row(&mut row, Lsn::new(1, i + 1));
    row
}

#[test]
fn block_reads_never_reopen_the_file() {
    let vfs = Arc::new(CountingVfs::default());
    let shared: SharedVfs = vfs.clone();
    // Tiny blocks and no cache: every lookup below reads a block from
    // the VFS.
    let opts = TableOptions { block_bytes: 128, bloom_bits_per_key: 10 };
    let mut b = TableBuilder::new(shared.clone(), "t/sst-h", opts).unwrap();
    let n = 64u64;
    for i in 0..n {
        b.add(&Key::from(format!("user{i:04}").as_str()), &row(i)).unwrap();
    }
    drop(b.finish().unwrap());

    let before = vfs.opens();
    let ctx = TableCtx::default();
    let metrics = ctx.metrics.clone();
    let table = Table::open_with(shared, "t/sst-h", ctx).unwrap();
    assert_eq!(vfs.opens(), before + 1, "open_with opens the file once");
    let opened = vfs.opens();

    for i in (0..n).step_by(7) {
        let key = Key::from(format!("user{i:04}").as_str());
        assert_eq!(table.get_unfiltered(&key).unwrap(), Some(row(i)));
    }
    assert_eq!(table.get_unfiltered(&Key::from("user9999")).unwrap(), None);
    assert!(metrics.block_reads() >= 8, "the gets should span several blocks");
    assert_eq!(vfs.opens(), opened, "a point get reopened the file");

    let rows = table.iter().collect::<Result<Vec<_>>>().unwrap();
    assert_eq!(rows.len() as u64, n);
    assert_eq!(vfs.opens(), opened, "a full scan reopened the file");

    table.delete().unwrap();
    assert!(!vfs.exists("t/sst-h").unwrap());
}
