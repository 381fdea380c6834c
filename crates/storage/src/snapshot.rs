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

use bytes::{Buf, BufMut, BytesMut};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, DecodeError};
use crate::crc::crc32;
use crate::store::{normalize_name, Segment, Slot, Store, TableData};
use crate::types::TxnId;

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

fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

fn read_file(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match File::open(path) {
        Ok(mut f) => {
            // Sized up front: a segment is megabytes, and growing the buffer
            // by doubling copies it several times over.
            let mut bytes = Vec::with_capacity(f.metadata()?.len() as usize + 1);
            f.read_to_end(&mut bytes)?;
            Ok(Some(bytes))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn seal(mut body: Vec<u8>) -> Vec<u8> {
    // Trailing CRC over everything, so a torn write is detectable (the
    // atomic rename makes this nearly impossible, but cheap belt and braces
    // for files everything else depends on).
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

fn unseal<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8], DecodeError> {
    if bytes.len() < 12 {
        return Err(DecodeError(format!("{what} too short")));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(DecodeError(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

fn decode_err(e: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Write one table's data as a segment file (temp + fsync + rename).
pub fn write_segment(path: &Path, table: &TableData) -> io::Result<()> {
    let mut buf = BytesMut::new();
    buf.put_slice(SEGMENT_MAGIC);
    codec::put_table_def(&mut buf, &table.def);
    buf.put_u64_le(table.next_row_id);
    buf.put_u64_le(table.rows.len() as u64);
    for (row_id, row) in &table.rows {
        buf.put_u64_le(*row_id);
        codec::put_row(&mut buf, row);
    }
    write_atomically(path, &seal(buf.to_vec()))
}

/// Load one table segment: the one place a segment file becomes a
/// [`TableData`].
pub fn load_segment(path: &Path) -> io::Result<TableData> {
    let bytes = read_file(path)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("missing snapshot segment {}", path.display()),
        )
    })?;
    let mut buf = unseal(&bytes, "segment").map_err(decode_err)?;
    let mut magic = [0u8; 8];
    if buf.remaining() < 8 {
        return Err(decode_err(DecodeError("segment too short".into())));
    }
    buf.copy_to_slice(&mut magic);
    if &magic != SEGMENT_MAGIC {
        return Err(decode_err(DecodeError("bad segment magic".into())));
    }
    let mut inner = || -> Result<TableData, DecodeError> {
        let def = codec::get_table_def(&mut buf)?;
        if buf.remaining() < 16 {
            return Err(DecodeError("truncated segment header".into()));
        }
        let next_row_id = buf.get_u64_le();
        let nrows = buf.get_u64_le();
        // Every row costs at least its 8-byte id, which bounds the count
        // before anything is allocated for it.
        if nrows > (buf.remaining() / 8) as u64 {
            return Err(DecodeError("segment row count exceeds its size".into()));
        }
        let mut rows = Vec::with_capacity(nrows as usize);
        for _ in 0..nrows {
            if buf.remaining() < 8 {
                return Err(DecodeError("truncated row id".into()));
            }
            let row_id = buf.get_u64_le();
            if rows.last().is_some_and(|(last, _)| *last >= row_id) {
                return Err(DecodeError("segment row ids not ascending".into()));
            }
            rows.push((row_id, codec::get_row(&mut buf)?));
        }
        TableData::from_rows(def, next_row_id, rows)
            .map_err(|e| DecodeError(format!("segment rows rejected: {e}")))
    };
    inner().map_err(decode_err)
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
    write_atomically(path, &seal(buf.to_vec()))?;
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
    let Some(bytes) = read_file(path)? else {
        return Ok(None);
    };
    let mut buf = unseal(&bytes, "manifest").map_err(decode_err)?;
    let mut magic = [0u8; 8];
    if buf.remaining() < 8 {
        return Err(decode_err(DecodeError("manifest too short".into())));
    }
    buf.copy_to_slice(&mut magic);
    if &magic != MANIFEST_MAGIC {
        return Err(decode_err(DecodeError("bad manifest magic".into())));
    }
    let mut inner = || -> Result<Manifest, DecodeError> {
        if buf.remaining() < 20 {
            return Err(DecodeError("truncated manifest header".into()));
        }
        let mark = buf.get_u64_le();
        let gen = buf.get_u64_le();
        let ntables = buf.get_u32_le();
        let mut tables = Vec::with_capacity(ntables as usize);
        for _ in 0..ntables {
            let name = codec::get_str(&mut buf)?;
            let file = codec::get_str(&mut buf)?;
            tables.push((name, file));
        }
        if buf.remaining() < 4 {
            return Err(DecodeError("truncated proc count".into()));
        }
        let nprocs = buf.get_u32_le();
        let mut procs = Vec::with_capacity(nprocs as usize);
        for _ in 0..nprocs {
            let name = codec::get_str(&mut buf)?;
            let sql = codec::get_str(&mut buf)?;
            procs.push((name, sql));
        }
        Ok(Manifest {
            mark,
            gen,
            tables,
            procs,
        })
    };
    inner().map(Some).map_err(decode_err)
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
            .map_err(|e| decode_err(DecodeError(format!("manifest proc rejected: {e}"))))?;
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
