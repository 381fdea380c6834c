//! Checkpointing: incremental, multi-segment snapshots.
//!
//! A checkpoint no longer serializes the whole store into one file. It
//! writes one *segment* file per table (only for tables whose data changed
//! since the previous checkpoint — the copy-on-write `Arc` pointers make
//! "changed" an O(1) identity test) and then a small *manifest* naming the
//! segment each table lives in, the committed-transaction high-water mark,
//! and the stored-procedure catalog. Every file is written with the classic
//! temp-file + fsync + rename discipline; the manifest rename is the commit
//! point of the whole checkpoint.
//!
//! The **mark** is the recovery contract's linchpin: every transaction with
//! id ≤ mark that finished did so before the snapshot image was captured,
//! so its effects are already materialized in the segments. Recovery must
//! skip log records with `txn ≤ mark` — replaying them would apply the
//! mutation twice (see `Durable::open`).
//!
//! On-disk layout inside the data directory:
//!
//! ```text
//! phoenix.snapshot            manifest (see MANIFEST_MAGIC)
//! phoenix.<gen>.<idx>.seg     one table's data (see SEGMENT_MAGIC)
//! ```
//!
//! Segment files are content-immutable once renamed into place: a later
//! checkpoint that touches the table writes a *new* segment under its own
//! generation number and the old one becomes garbage, collected only after
//! the new manifest is durable.
//!
//! [`load`] reads the manifest and checks that every segment it names
//! exists; the segments themselves are read — checksum, decode, index build,
//! all in [`load_segment`] — when the table is first touched (see
//! [`crate::store`]).

use bytes::{BufMut, BytesMut};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, DecodeError, Reader};
use crate::crc::crc32_resume;
use crate::pmap::PMap;
use crate::store::{normalize_name, Segment, Slot, Store, TableData};
use crate::types::{Row, TxnId};

/// Magic header identifying a phoenix snapshot manifest (format version 2 —
/// the multi-segment layout; version 1 was the monolithic `PHXSNAP1`).
const MANIFEST_MAGIC: &[u8; 8] = b"PHXMANI2";

/// Magic header identifying one table segment.
const SEGMENT_MAGIC: &[u8; 8] = b"PHXSEGM1";

/// The checkpoint manifest: which segment file holds each table, plus the
/// recovery metadata that used to ride in the monolithic snapshot header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Committed/finished-transaction high-water mark at the instant the
    /// snapshot image was captured. Recovery skips log records with
    /// `txn ≤ mark`: their effects are already in the segments.
    pub mark: TxnId,
    /// Checkpoint generation, monotonically increasing. Segment files embed
    /// the generation that wrote them, so names never collide.
    pub gen: u64,
    /// `(canonical table name, segment file name)` pairs, sorted by name.
    pub tables: Vec<(String, String)>,
    /// `(name, sql)` of every stored procedure (tiny; kept inline).
    pub procs: Vec<(String, String)>,
}

/// Name of the segment file for table index `idx` written by checkpoint
/// generation `gen`.
pub fn segment_file_name(gen: u64, idx: usize) -> String {
    format!("phoenix.{gen:06}.{idx}.seg")
}

/// Bytes a segment is read, and written, a piece at a time in.
const CHUNK: usize = 64 * 1024;

/// Write `path` through `fill`, which hands each piece of the body to the
/// function it is given, then seal it with a trailing CRC over everything,
/// so a torn write is detectable (the atomic rename makes this nearly
/// impossible, but cheap belt and braces for files everything else depends
/// on): temp file, fsync, rename.
fn write_atomically(
    path: &Path,
    fill: impl FnOnce(&mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = BufWriter::with_capacity(CHUNK, File::create(&tmp)?);
    let mut crc = 0;
    fill(&mut |bytes| {
        crc = crc32_resume(crc, bytes);
        file.write_all(bytes)
    })?;
    file.write_all(&crc.to_le_bytes())?;
    file.into_inner().map_err(|e| e.into_error())?.sync_data()?;
    fs::rename(&tmp, path)
}

fn decode_err(e: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, DecodeError(e.into()))
}

/// Write one table's data as a segment file (temp + fsync + rename), a row
/// at a time.
pub fn write_segment(path: &Path, table: &TableData) -> io::Result<()> {
    write_atomically(path, |out| {
        let mut buf = Vec::new();
        buf.put_slice(SEGMENT_MAGIC);
        codec::put_table_def(&mut buf, &table.def);
        buf.put_u64_le(table.next_row_id);
        buf.put_u64_le(table.rows.len() as u64);
        out(&buf)?;
        for (row_id, row) in &table.rows {
            buf.clear();
            buf.put_u64_le(*row_id);
            codec::put_row(&mut buf, row);
            out(&buf)?;
        }
        Ok(())
    })
}

/// A sealed file — a body, then the CRC-32 of the body — read `chunk` bytes
/// at a time and summed into a CRC as it is read; nothing but the bytes not
/// yet decoded is held.
struct Unsealing {
    file: File,
    /// Body bytes not yet read from the file.
    left: u64,
    buf: Vec<u8>,
    /// Where in `buf` the next item starts.
    at: usize,
    crc: u32,
    chunk: usize,
}

impl Unsealing {
    /// Open `path` and check that its body starts with `magic`.
    fn open(path: &Path, magic: &[u8; 8], chunk: usize) -> io::Result<Unsealing> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < 12 {
            return Err(decode_err("file too short"));
        }
        let mut f = Unsealing {
            file,
            left: len - 4,
            buf: Vec::new(),
            at: 0,
            crc: 0,
            chunk,
        };
        if f.decode(|r| r.u64("magic"))? != u64::from_le_bytes(*magic) {
            return Err(decode_err("bad magic"));
        }
        Ok(f)
    }

    /// Read more of the body: a chunk, or as much as is held if that is
    /// more, so an item longer than a chunk takes a few reads, not one per
    /// chunk. `false` at the end of the body.
    fn fill(&mut self) -> io::Result<bool> {
        self.buf.drain(..self.at);
        self.at = 0;
        let held = self.buf.len();
        let n = (self.chunk.max(held) as u64).min(self.left) as usize;
        self.buf.resize(held + n, 0);
        self.file.read_exact(&mut self.buf[held..])?;
        self.crc = crc32_resume(self.crc, &self.buf[held..]);
        self.left -= n as u64;
        Ok(n > 0)
    }

    /// Decode one item with `read`, reading more of the body while what is
    /// held does not decode and there is more to read: an item cut by the
    /// end of a chunk is read again from its start.
    fn decode<T>(
        &mut self,
        read: impl Fn(&mut Reader<'_>) -> Result<T, DecodeError>,
    ) -> io::Result<T> {
        loop {
            let mut r = Reader::new(&self.buf[self.at..]);
            match read(&mut r) {
                Ok(item) => {
                    self.at = self.buf.len() - r.remaining();
                    return Ok(item);
                }
                Err(e) if !self.fill()? => return Err(decode_err(e.0)),
                Err(_) => {}
            }
        }
    }

    /// Check that the body ends where the last item does, then read the
    /// seal and check it.
    fn check_seal(mut self) -> io::Result<()> {
        if self.at < self.buf.len() || self.left > 0 {
            return Err(decode_err("bytes past the last item"));
        }
        let mut seal = [0u8; 4];
        self.file.read_exact(&mut seal)?;
        if u32::from_le_bytes(seal) != self.crc {
            return Err(decode_err("checksum mismatch"));
        }
        Ok(())
    }
}

/// Load one table segment: the one place a segment file becomes a
/// [`TableData`].
pub fn load_segment(path: &Path) -> io::Result<TableData> {
    read_segment(path, CHUNK)
}

/// [`load_segment`], reading `chunk` bytes at a time. Rows decode straight
/// into the row map; the checksum, summed as the file is read, is checked
/// once the last row is in, and a mismatch drops everything built.
fn read_segment(path: &Path, chunk: usize) -> io::Result<TableData> {
    let mut seg = Unsealing::open(path, SEGMENT_MAGIC, chunk)?;
    let def = seg.decode(|r| r.table_def())?;
    let (next_row_id, nrows) = seg.decode(|r| Ok((r.u64("next row id")?, r.u64("row count")?)))?;
    let mut failed = Ok(());
    let mut last = None;
    let rows = PMap::from_sorted((0..nrows).map_while(|_| {
        let row = seg.decode(|r| Ok((r.u64("row id")?, r.row::<Row>()?.into_boxed_slice())));
        // Ascending; `from_rows` refuses the last id, which no row may take.
        let row = row.and_then(|(id, row)| match last {
            Some(last) if last >= id => Err(decode_err("segment row ids not ascending")),
            _ => Ok((id, row)),
        });
        row.inspect(|(id, _)| last = Some(*id))
            .map_err(|e| failed = Err(e))
            .ok()
    }));
    failed?;
    seg.check_seal()?;
    TableData::from_rows(def, next_row_id, rows)
        .map_err(|e| decode_err(format!("segment rows rejected: {e}")))
}

/// Write the manifest atomically, then fsync the directory so the rename —
/// the checkpoint's commit point — survives power loss.
pub fn write_manifest(path: &Path, m: &Manifest) -> io::Result<()> {
    let mut buf = BytesMut::new();
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u64_le(m.mark);
    buf.put_u64_le(m.gen);
    buf.put_u32_le(m.tables.len() as u32);
    for (name, file) in &m.tables {
        codec::put_str(&mut buf, name);
        codec::put_str(&mut buf, file);
    }
    buf.put_u32_le(m.procs.len() as u32);
    for (name, sql) in &m.procs {
        codec::put_str(&mut buf, name);
        codec::put_str(&mut buf, sql);
    }
    write_atomically(path, |out| out(&buf))?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself — and, transitively, the earlier
        // segment renames in the same directory.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_data();
        }
    }
    Ok(())
}

/// Load the manifest at `path`. Returns `Ok(None)` when none exists.
pub fn load_manifest(path: &Path) -> io::Result<Option<Manifest>> {
    let mut f = match Unsealing::open(path, MANIFEST_MAGIC, CHUNK) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        f => f?,
    };
    let (mark, gen) = f.decode(|r| Ok((r.u64("mark")?, r.u64("generation")?)))?;
    let mut pairs = || -> io::Result<Vec<(String, String)>> {
        let n = f.decode(|r| r.u32("count"))?;
        (0..n)
            .map(|_| f.decode(|r| Ok((r.str()?.to_owned(), r.str()?.to_owned()))))
            .collect()
    };
    let (tables, procs) = (pairs()?, pairs()?);
    f.check_seal()?;
    Ok(Some(Manifest {
        mark,
        gen,
        tables,
        procs,
    }))
}

/// Normalized table key → (segment file, the table image that file holds):
/// a checkpoint's identity map. [`Slot::same`] against the live store tells
/// the next checkpoint which tables are unchanged.
pub(crate) type SegmentBase = HashMap<String, (String, Slot)>;

/// A snapshot as [`load`] leaves it: the catalog in memory, every table
/// still in its segment, plus the metadata the durability layer needs to
/// filter replay and to diff the next checkpoint.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Every table and procedure of the manifest; the tables load from
    /// their segments on first touch.
    pub store: Store,
    /// Replay high-water mark (skip log records with `txn ≤ mark`).
    pub mark: TxnId,
    /// Generation of the manifest (the next checkpoint uses `gen + 1`).
    pub gen: u64,
    pub(crate) base: SegmentBase,
}

/// Load the snapshot anchored at manifest `path`, with segments resolved
/// relative to `dir`. Returns `Ok(None)` when no manifest exists.
///
/// What is checked here is the manifest (checksum, decode) and that each
/// segment it names is a file; what is deferred to a table's first touch is
/// that segment's data and checksum.
pub fn load(dir: &Path, path: &Path) -> io::Result<Option<LoadedSnapshot>> {
    let Some(manifest) = load_manifest(path)? else {
        return Ok(None);
    };
    let mut store = Store::new();
    let mut base = SegmentBase::with_capacity(manifest.tables.len());
    for (name, file) in manifest.tables {
        let seg_path = dir.join(&file);
        fs::metadata(&seg_path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "snapshot segment {} of table '{name}': {e}",
                    seg_path.display()
                ),
            )
        })?;
        let key = normalize_name(&name);
        let seg = Arc::new(Segment::new(name, seg_path));
        base.insert(key, (file, Slot::OnDisk(Arc::clone(&seg))));
        store.install_segment(seg);
    }
    for (name, sql) in &manifest.procs {
        store
            .create_proc(name, sql)
            .map_err(|e| decode_err(format!("manifest proc rejected: {e}")))?;
    }
    Ok(Some(LoadedSnapshot {
        store,
        mark: manifest.mark,
        gen: manifest.gen,
        base,
    }))
}

/// Delete segment files (and stale temp files) in `dir` that no live
/// manifest references. Called after the new manifest is durable; `keep`
/// is the set of segment file names the manifest points at.
pub fn remove_orphan_segments(
    dir: &Path,
    keep: &std::collections::HashSet<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let dead = name.starts_with("phoenix.")
            && (name.ends_with(".seg") && !keep.contains(name) || name.ends_with(".tmp"));
        if dead {
            match fs::remove_file(entry.path()) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::store::StoreError;
    use crate::types::{Column, DataType, Schema, TableDef, Value};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("phoenix-snap-test-{}-{n}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_store() -> Store {
        let mut s = Store::new();
        s.create_table(
            TableDef::new(
                "dbo.t",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("v", DataType::Text),
                ]),
            )
            .with_primary_key(vec![0]),
        )
        .unwrap();
        let t = s.table_mut("dbo.t").unwrap();
        t.insert(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        s.create_proc("phoenix.p", "SELECT * FROM dbo.t").unwrap();
        s
    }

    /// Write a full snapshot of `store` the way a (non-incremental)
    /// checkpoint would: every table gets a fresh segment under `gen`.
    fn write_full(dir: &Path, store: &Store, mark: TxnId, gen: u64) {
        let mut tables = Vec::new();
        for (idx, name) in store.table_names().iter().enumerate() {
            let file = segment_file_name(gen, idx);
            write_segment(&dir.join(&file), store.table(name).unwrap()).unwrap();
            tables.push((name.clone(), file));
        }
        let procs = store
            .proc_names()
            .iter()
            .map(|n| (n.clone(), store.proc(n).unwrap().to_string()))
            .collect();
        write_manifest(
            &dir.join("phoenix.snapshot"),
            &Manifest {
                mark,
                gen,
                tables,
                procs,
            },
        )
        .unwrap();
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = temp_dir();
        let store = sample_store();
        write_full(&dir, &store, 42, 1);
        let loaded = load(&dir, &dir.join("phoenix.snapshot")).unwrap().unwrap();
        assert_eq!(loaded.mark, 42);
        assert_eq!(loaded.gen, 1);
        assert_eq!(loaded.store.table_names(), store.table_names());
        let t = loaded.store.table("dbo.t").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_id_by_key(&[Value::Int(2)]), Some(2));
        assert_eq!(t.next_row_id, 3);
        assert_eq!(loaded.store.proc("phoenix.p"), Some("SELECT * FROM dbo.t"));
        assert_eq!(loaded.base.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `load` reads the manifest only: the segment is read by the first
    /// lookup, once, and every clone of the store shares that one read.
    #[test]
    fn segments_load_on_first_touch_and_only_once() {
        let dir = temp_dir();
        write_full(&dir, &sample_store(), 1, 1);
        let loaded = load(&dir, &dir.join("phoenix.snapshot")).unwrap().unwrap();
        let (_, Slot::OnDisk(seg)) = &loaded.base["dbo.t"] else {
            panic!("a table fresh from the manifest is on disk");
        };
        assert!(seg.loaded().is_none(), "load() read a segment");
        assert_eq!(loaded.store.table_names(), ["dbo.t"]);
        assert!(loaded.store.has_table("DBO.T"));
        assert!(seg.loaded().is_none(), "the catalog needs no segment");

        let clone = loaded.store.clone();
        let first = clone.table("dbo.t").unwrap();
        assert!(seg.loaded().is_some());
        // With the file gone a second read would fail: there is none.
        fs::remove_file(dir.join(segment_file_name(1, 0))).unwrap();
        assert!(std::ptr::eq(first, loaded.store.table("dbo.t").unwrap()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = temp_dir();
        assert!(load(&dir, &dir.join("phoenix.snapshot")).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_an_error() {
        let dir = temp_dir();
        write_full(&dir, &sample_store(), 1, 1);
        let path = dir.join("phoenix.snapshot");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(load(&dir, &path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment that does not read back — bit-flipped, then truncated —
    /// is an error at the first touch of *that* table, naming the file;
    /// `load` succeeds, the other table serves, nothing panics.
    #[test]
    fn corrupt_segment_is_an_error_at_first_touch_of_its_table() {
        for damage in [
            |bytes: &mut Vec<u8>| {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF
            },
            |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2),
            |bytes: &mut Vec<u8>| bytes.clear(),
        ] {
            let dir = temp_dir();
            let mut store = sample_store();
            store
                .create_table(TableDef::new(
                    "dbo.u",
                    Schema::new(vec![Column::new("v", DataType::Int)]),
                ))
                .unwrap();
            write_full(&dir, &store, 1, 1);
            let seg = dir.join(segment_file_name(1, 0));
            let mut bytes = fs::read(&seg).unwrap();
            damage(&mut bytes);
            fs::write(&seg, &bytes).unwrap();

            let mut loaded = load(&dir, &dir.join("phoenix.snapshot"))
                .unwrap()
                .unwrap()
                .store;
            assert!(loaded.table("dbo.u").unwrap().is_empty());
            for _ in 0..2 {
                let e = loaded.table("dbo.t").unwrap_err();
                assert!(
                    matches!(&e, StoreError::Segment { table, file, .. }
                        if table == "dbo.t" && file.ends_with(".seg")),
                    "{e}"
                );
            }
            assert!(matches!(
                loaded.table_mut("dbo.t"),
                Err(StoreError::Segment { .. })
            ));
            assert!(loaded.drop_table("dbo.t").is_err());
            assert!(loaded.has_table("dbo.t"), "a failed drop removes nothing");
            assert!(loaded.verify_indexes().is_err());
            assert_eq!(loaded.tables().count(), 1, "tables() skips the bad one");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_segment_is_an_error() {
        let dir = temp_dir();
        write_full(&dir, &sample_store(), 1, 1);
        fs::remove_file(dir.join(segment_file_name(1, 0))).unwrap();
        let e = load(&dir, &dir.join("phoenix.snapshot")).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(e.to_string().contains("dbo.t"), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// No format change: the seal on every file is the byte-at-a-time CRC
    /// every earlier build wrote and checks, so directories move between
    /// builds in both directions.
    #[test]
    fn files_are_sealed_with_the_reference_crc() {
        use crate::crc::tests::crc32_bytewise;
        let dir = temp_dir();
        write_full(&dir, &sample_store(), 7, 1);
        for name in ["phoenix.snapshot".to_string(), segment_file_name(1, 0)] {
            let bytes = fs::read(dir.join(&name)).unwrap();
            let (body, seal) = bytes.split_at(bytes.len() - 4);
            assert_eq!(seal, crc32_bytewise(body).to_le_bytes(), "{name}");
        }
        let loaded = load(&dir, &dir.join("phoenix.snapshot")).unwrap().unwrap();
        assert_eq!(loaded.mark, 7);
        assert_eq!(loaded.store.table("dbo.t").unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What `write_segment` wrote before it streamed: the whole file built
    /// in memory, then sealed. Kept as the reference the streamed file must
    /// equal byte for byte.
    fn segment_bytes_reference(table: &TableData) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(SEGMENT_MAGIC);
        codec::put_table_def(&mut buf, &table.def);
        buf.put_u64_le(table.next_row_id);
        buf.put_u64_le(table.rows.len() as u64);
        for (row_id, row) in &table.rows {
            buf.put_u64_le(*row_id);
            codec::put_row(&mut buf, row);
        }
        let mut body = buf.to_vec();
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// A table with a secondary index, NULLs and text, rows deleted so the
    /// ids have gaps: what the hostile-bytes test mutates.
    fn indexed_table() -> TableData {
        let mut t = TableData::new(
            TableDef::new(
                "dbo.h",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("g", DataType::Int),
                    Column::new("s", DataType::Text),
                ]),
            )
            .with_primary_key(vec![0]),
        );
        t.create_index("h_g", 1).unwrap();
        for i in 0..6i64 {
            let g = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i % 2)
            };
            let s = if i == 4 {
                Value::Null
            } else {
                Value::Text(format!("row-{i}"))
            };
            t.insert(vec![Value::Int(i), g, s]).unwrap();
        }
        t.delete(2).unwrap();
        t
    }

    #[test]
    fn a_streamed_segment_equals_the_reference_bytes_and_loads_back() {
        let dir = temp_dir();
        let path = dir.join("t.seg");
        let table = indexed_table();
        write_segment(&path, &table).unwrap();
        assert_eq!(fs::read(&path).unwrap(), segment_bytes_reference(&table));
        for chunk in [1, 2, 5, 64, CHUNK] {
            let back = read_segment(&path, chunk).unwrap();
            assert_eq!(back.rows, table.rows, "chunk {chunk}");
            assert_eq!(back.next_row_id, table.next_row_id);
            assert_eq!(back.def, table.def);
            back.verify_indexes().unwrap();
            assert_eq!(back.sec[0].distinct(), 3);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Hostile segment bytes through the streaming loader: truncated at
    /// every byte (so at every chunk boundary of a 7-byte chunk), every bit
    /// flipped, and lies in the header's next row id, the row count, a
    /// row's arity, a string's length and a row id under a recomputed seal.
    /// Each is an error, never a panic, and no part of the table reaches
    /// the store's slot: the table stays an error however often it is
    /// touched.
    #[test]
    fn hostile_segment_bytes_are_errors_and_build_nothing() {
        let dir = temp_dir();
        let mut store = Store::new();
        store
            .create_table(indexed_table().def.as_ref().clone())
            .unwrap();
        *store.table_mut("dbo.h").unwrap() = indexed_table();
        write_full(&dir, &store, 1, 1);
        let path = dir.join(segment_file_name(1, 0));
        let good = fs::read(&path).unwrap();
        let resealed = |mut bytes: Vec<u8>| {
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            bytes
        };
        // Offsets of the fields the lies rewrite.
        let mut def = BytesMut::new();
        codec::put_table_def(&mut def, &store.table("dbo.h").unwrap().def);
        let count_at = 8 + def.len() + 8;
        let arity_at = count_at + 8 + 8;
        // The first row is (0, NULL, 'row-0'): its string length follows
        // two tags, the int's eight bytes and the text tag.
        let str_len_at = arity_at + 2 + 1 + 8 + 1 + 1;
        assert_eq!(good[str_len_at..str_len_at + 4], 5u32.to_le_bytes());
        // The last row's id, 6, just before its row and the seal.
        let mut last_row = BytesMut::new();
        codec::put_row(&mut last_row, &store.table("dbo.h").unwrap().rows[&6]);
        let last_id_at = good.len() - 4 - last_row.len() - 8;
        assert_eq!(good[last_id_at..last_id_at + 8], 6u64.to_le_bytes());

        let mut variants: Vec<(String, Vec<u8>)> = Vec::new();
        for cut in 0..good.len() {
            variants.push((format!("cut at {cut}"), good[..cut].to_vec()));
        }
        for bit in 0..good.len() * 8 {
            let mut b = good.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            variants.push((format!("bit {bit} flipped"), b));
        }
        for (at, width, lies) in [
            (count_at - 8, 8, &[u64::MAX][..]),
            (count_at, 8, &[0, 4, 6, u64::MAX]),
            (arity_at, 2, &[0, 2, 4, 0xFFFF]),
            (str_len_at, 4, &[0, 4, 6, 0xFFFF_FFFF]),
            (last_id_at, 8, &[5, u64::MAX]),
        ] {
            for &lie in lies {
                let mut b = good.clone();
                b[at..at + width].copy_from_slice(&lie.to_le_bytes()[..width]);
                variants.push((format!("{lie} written at {at}"), resealed(b)));
            }
        }
        for (what, bytes) in &variants {
            fs::write(&path, bytes).unwrap();
            for chunk in [7, CHUNK] {
                assert!(read_segment(&path, chunk).is_err(), "{what}, chunk {chunk}");
            }
            let loaded = load(&dir, &dir.join("phoenix.snapshot")).unwrap().unwrap();
            for _ in 0..2 {
                assert!(
                    matches!(loaded.store.table("dbo.h"), Err(StoreError::Segment { .. })),
                    "{what}"
                );
            }
            assert_eq!(loaded.store.tables().count(), 0, "{what}");
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(read_segment(&path, 7).unwrap().len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrite_replaces_previous_snapshot() {
        let dir = temp_dir();
        write_full(&dir, &sample_store(), 1, 1);
        let mut bigger = sample_store();
        bigger
            .table_mut("dbo.t")
            .unwrap()
            .insert(vec![Value::Int(3), Value::Null])
            .unwrap();
        write_full(&dir, &bigger, 2, 2);
        let loaded = load(&dir, &dir.join("phoenix.snapshot")).unwrap().unwrap();
        assert_eq!(loaded.mark, 2);
        assert_eq!(loaded.store.table("dbo.t").unwrap().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_cleanup_spares_live_segments() {
        let dir = temp_dir();
        write_full(&dir, &sample_store(), 1, 1);
        // A dead segment from an older generation plus a stale temp file.
        fs::write(dir.join(segment_file_name(0, 3)), b"dead").unwrap();
        fs::write(dir.join("phoenix.000002.0.tmp"), b"stale").unwrap();
        let keep: std::collections::HashSet<String> =
            std::iter::once(segment_file_name(1, 0)).collect();
        remove_orphan_segments(&dir, &keep).unwrap();
        assert!(dir.join(segment_file_name(1, 0)).exists());
        assert!(!dir.join(segment_file_name(0, 3)).exists());
        assert!(!dir.join("phoenix.000002.0.tmp").exists());
        // The store still loads.
        assert!(load(&dir, &dir.join("phoenix.snapshot")).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
