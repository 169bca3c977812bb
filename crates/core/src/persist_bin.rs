//! Binary columnar snapshots: the `rememberr-bin/v1` format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "RMBR" | version u32 | 4 sections, each: length u64 + payload
//!   header   — entry count u64, dedup identity stats 4 x u64,
//!              chunk size u32
//!   strings  — deduplicated string table: count u32, then per string
//!              length u32 + UTF-8 bytes, in first-occurrence order
//!   entries  — chunk count u32, then per chunk length u64 + a columnar
//!              block of `chunk size` entries (field-major columns of
//!              fixed-width values and u32 string-table ids)
//!   checksum — one FNV-1a 64 hash per preceding section payload, in
//!              section order
//! ```
//!
//! Strings never repeat on disk: every textual field (titles,
//! descriptions, workaround and status phrases, concrete annotation
//! descriptions, fixed-in steppings) is a `u32` id into the table, which
//! collapses the corpus' heavy repetition of facet phrasing. Load is one
//! buffered read of the whole stream followed by columnar decoding — no
//! per-record text parsing.
//!
//! Both directions fan out over [`rememberr_par::par_map`] in
//! input-ordered chunks of [`CHUNK_ENTRIES`] entries. The string table is
//! built sequentially before encoding starts and is read-only afterwards,
//! so the bytes produced are identical at every worker count; decoding
//! concatenates chunk results in input order, so the database is too.

use std::collections::HashMap;
use std::io::Write;

use rememberr_model::{Annotation, MsrRef, WireError, WireReader, WireWriter};

use crate::db::Database;
use crate::dedup::DedupStats;
use crate::entry::DbEntry;
use crate::persist::PersistError;

/// Magic bytes opening every binary snapshot; [`crate::load`] sniffs them
/// to dispatch between formats.
pub(crate) const MAGIC: [u8; 4] = *b"RMBR";

/// Format identifier of the binary snapshot layout.
pub const BIN_FORMAT: &str = "rememberr-bin";

/// Version written after the magic; bump on any layout change.
pub const BIN_VERSION: u32 = 1;

/// Entries per columnar chunk — the unit of parallel encode/decode.
pub(crate) const CHUNK_ENTRIES: usize = 256;

/// FNV-1a 64-bit hash; the section checksum. Dependency-free and fast
/// enough that verification is a vanishing fraction of load time.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The deduplicated string table: unique strings in first-occurrence
/// order plus the id lookup used during encoding.
struct StringTable<'a> {
    strings: Vec<&'a str>,
    ids: HashMap<&'a str, u32>,
}

impl<'a> StringTable<'a> {
    /// Interns every textual field of every entry, walking entries in
    /// database order and fields in column order so the table is a pure
    /// function of the database.
    fn build(entries: &'a [DbEntry]) -> Self {
        let mut table = StringTable {
            strings: Vec::new(),
            ids: HashMap::new(),
        };
        for entry in entries {
            table.intern(&entry.erratum.title);
            table.intern(&entry.erratum.description);
            table.intern(&entry.erratum.implications);
            table.intern(&entry.erratum.workaround);
            table.intern(&entry.erratum.status);
            if let Some(fixed_in) = &entry.fixed_in {
                table.intern(fixed_in);
            }
            if let Some(annotation) = &entry.annotation {
                for text in &annotation.concrete_triggers {
                    table.intern(text);
                }
                for text in &annotation.concrete_contexts {
                    table.intern(text);
                }
                for text in &annotation.concrete_effects {
                    table.intern(text);
                }
            }
        }
        table
    }

    fn intern(&mut self, text: &'a str) {
        if !self.ids.contains_key(text) {
            let id = u32::try_from(self.strings.len()).expect("string table fits u32");
            self.strings.push(text);
            self.ids.insert(text, id);
        }
    }

    fn id(&self, text: &str) -> u32 {
        self.ids[text]
    }
}

/// Writes the database as a binary snapshot.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub(crate) fn save_binary<W: Write>(db: &Database, mut writer: W) -> Result<(), PersistError> {
    let entries = db.entries();
    let table = StringTable::build(entries);

    let stats = db.dedup_stats();
    let mut header = WireWriter::with_capacity(44);
    header.put_u64(entries.len() as u64);
    header.put_u64(stats.entries as u64);
    header.put_u64(stats.clusters as u64);
    header.put_u64(stats.exact_title_merges as u64);
    header.put_u64(stats.cascade_merges as u64);
    header.put_u32(CHUNK_ENTRIES as u32);

    let mut strings = WireWriter::with_capacity(table.strings.iter().map(|s| s.len() + 4).sum());
    strings.put_u32(table.strings.len() as u32);
    for text in &table.strings {
        strings.put_u32(text.len() as u32);
        strings.put_bytes(text.as_bytes());
    }

    // Fan the columnar encoding out in input-ordered chunks; the table is
    // frozen, so every worker count produces the same bytes.
    let chunks: Vec<&[DbEntry]> = entries.chunks(CHUNK_ENTRIES).collect();
    let encoded = rememberr_par::par_map(&chunks, |chunk| encode_chunk(chunk, &table));
    let mut entry_section =
        WireWriter::with_capacity(4 + encoded.iter().map(|c| c.len() + 8).sum::<usize>());
    entry_section.put_u32(encoded.len() as u32);
    for chunk in &encoded {
        entry_section.put_u64(chunk.len() as u64);
        entry_section.put_bytes(chunk);
    }

    let sections = [
        header.as_bytes(),
        strings.as_bytes(),
        entry_section.as_bytes(),
    ];
    let mut checksums = WireWriter::with_capacity(sections.len() * 8);
    for payload in sections {
        checksums.put_u64(fnv1a64(payload));
    }

    let mut bytes_written = (MAGIC.len() + 4) as u64;
    writer.write_all(&MAGIC)?;
    writer.write_all(&BIN_VERSION.to_le_bytes())?;
    for payload in sections.into_iter().chain([checksums.as_bytes()]) {
        writer.write_all(&(payload.len() as u64).to_le_bytes())?;
        writer.write_all(payload)?;
        bytes_written += 8 + payload.len() as u64;
    }
    writer.flush()?;

    rememberr_obs::count("persist.records_written", entries.len() as u64);
    rememberr_obs::count("persist.bytes_written", bytes_written);
    rememberr_obs::count("persist.bin.strings", table.strings.len() as u64);
    rememberr_obs::count("persist.bin.chunks", chunks.len() as u64);
    Ok(())
}

/// One columnar chunk: a count, then field-major columns. Optional
/// columns (key, fixed-in, annotation) are a presence bitmap followed by
/// the present values in entry order.
fn encode_chunk(entries: &[DbEntry], table: &StringTable<'_>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(entries.len() * 48);
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put(&e.erratum.id.design);
    }
    for e in entries {
        w.put_u32(e.erratum.id.number);
    }
    let text_columns: [fn(&DbEntry) -> &str; 5] = [
        |e| &e.erratum.title,
        |e| &e.erratum.description,
        |e| &e.erratum.implications,
        |e| &e.erratum.workaround,
        |e| &e.erratum.status,
    ];
    for field in text_columns {
        for e in entries {
            w.put_u32(table.id(field(e)));
        }
    }
    for e in entries {
        w.put(&e.provenance);
    }
    for e in entries {
        w.put(&e.workaround);
    }
    for e in entries {
        w.put(&e.fix);
    }
    put_bitmap(&mut w, entries, |e| e.key.is_some());
    for e in entries {
        if let Some(key) = e.key {
            w.put(&key);
        }
    }
    put_bitmap(&mut w, entries, |e| e.fixed_in.is_some());
    for e in entries {
        if let Some(fixed_in) = &e.fixed_in {
            w.put_u32(table.id(fixed_in));
        }
    }
    put_bitmap(&mut w, entries, |e| e.annotation.is_some());
    for e in entries {
        if let Some(annotation) = &e.annotation {
            encode_annotation(&mut w, annotation, table);
        }
    }
    w.into_bytes()
}

fn encode_annotation(w: &mut WireWriter, a: &Annotation, table: &StringTable<'_>) {
    w.put(&a.triggers);
    w.put(&a.contexts);
    w.put(&a.effects);
    w.put_u8(u8::from(a.complex_conditions));
    for list in [
        &a.concrete_triggers,
        &a.concrete_contexts,
        &a.concrete_effects,
    ] {
        w.put_u32(list.len() as u32);
        for text in list {
            w.put_u32(table.id(text));
        }
    }
    w.put_u32(a.msrs.len() as u32);
    for msr in &a.msrs {
        w.put(msr);
    }
}

fn put_bitmap<F: Fn(&DbEntry) -> bool>(w: &mut WireWriter, entries: &[DbEntry], present: F) {
    let mut byte = 0u8;
    for (i, e) in entries.iter().enumerate() {
        if present(e) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.put_u8(byte);
            byte = 0;
        }
    }
    if !entries.is_empty() && !entries.len().is_multiple_of(8) {
        w.put_u8(byte);
    }
}

fn corrupt(detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt(detail.into())
}

/// Reads a database from binary snapshot bytes (including magic).
///
/// # Errors
///
/// [`PersistError::Corrupt`] on any structural violation (bad magic or
/// checksum, out-of-range id, malformed section),
/// [`PersistError::UnsupportedVersion`] on a version mismatch, and
/// [`PersistError::Truncated`] when the chunks hold fewer entries than
/// the header announces.
pub(crate) fn load_binary(bytes: &[u8]) -> Result<Database, PersistError> {
    if bytes.len() < 8 || bytes[..4] != MAGIC {
        return Err(corrupt("missing rememberr-bin magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != BIN_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }

    let mut r = WireReader::new(&bytes[8..]);
    let header = take_section(&mut r, "header")?;
    let strings_payload = take_section(&mut r, "string table")?;
    let entries_payload = take_section(&mut r, "entries")?;
    let checksums = take_section(&mut r, "checksum")?;
    if !r.is_done() {
        return Err(corrupt("trailing bytes after checksum section"));
    }

    let mut cr = WireReader::new(checksums);
    for (name, payload) in [
        ("header", header),
        ("string table", strings_payload),
        ("entries", entries_payload),
    ] {
        let want = cr.take_u64("section checksum")?;
        let got = fnv1a64(payload);
        if got != want {
            return Err(corrupt(format!(
                "checksum mismatch in {name} section: stored {want:#018x}, computed {got:#018x}"
            )));
        }
    }
    if !cr.is_done() {
        return Err(corrupt("oversized checksum section"));
    }

    let mut hr = WireReader::new(header);
    let expected = hr.take_u64("entry count")? as usize;
    let stats = DedupStats {
        entries: hr.take_u64("dedup entries")? as usize,
        clusters: hr.take_u64("dedup clusters")? as usize,
        exact_title_merges: hr.take_u64("dedup exact title merges")? as usize,
        cascade_merges: hr.take_u64("dedup cascade merges")? as usize,
        comparisons_made: 0,
    };
    let chunk_size = hr.take_u32("chunk size")?;
    if chunk_size == 0 {
        return Err(corrupt("chunk size 0"));
    }
    if !hr.is_done() {
        return Err(corrupt("oversized header section"));
    }

    let mut sr = WireReader::new(strings_payload);
    let string_count = sr.take_u32("string count")? as usize;
    let mut strings = Vec::with_capacity(string_count);
    for _ in 0..string_count {
        let len = sr.take_u32("string length")? as usize;
        let raw = sr.take_bytes(len, "string bytes")?;
        let text = std::str::from_utf8(raw).map_err(|_| corrupt("string table is not UTF-8"))?;
        strings.push(text.to_string());
    }
    if !sr.is_done() {
        return Err(corrupt("trailing bytes in string table"));
    }

    let mut er = WireReader::new(entries_payload);
    let chunk_count = er.take_u32("chunk count")? as usize;
    let mut chunk_slices = Vec::with_capacity(chunk_count);
    for _ in 0..chunk_count {
        let len = er.take_u64("chunk length")? as usize;
        chunk_slices.push(er.take_bytes(len, "entry chunk")?);
    }
    if !er.is_done() {
        return Err(corrupt("trailing bytes in entries section"));
    }

    // Decode chunks in parallel; concatenation in input order keeps the
    // database identical at every worker count.
    let decoded = rememberr_par::par_map(&chunk_slices, |chunk| decode_chunk(chunk, &strings));
    let mut entries = Vec::with_capacity(expected);
    for chunk in decoded {
        entries.extend(chunk?);
    }
    if entries.len() != expected {
        return Err(PersistError::Truncated {
            expected,
            found: entries.len(),
        });
    }

    rememberr_obs::count("persist.records_read", entries.len() as u64);
    rememberr_obs::count("persist.bytes_read", bytes.len() as u64);
    rememberr_obs::count("persist.bin.strings", strings.len() as u64);
    rememberr_obs::count("persist.bin.chunks", chunk_count as u64);

    let mut db = Database::new();
    db.extend(entries);
    db.restore_dedup_stats(stats);
    Ok(db)
}

fn take_section<'a>(r: &mut WireReader<'a>, name: &'static str) -> Result<&'a [u8], PersistError> {
    let len = r.take_u64("section length")? as usize;
    r.take_bytes(len, name)
        .map_err(|_| corrupt(format!("truncated {name} section")))
}

fn decode_chunk(bytes: &[u8], strings: &[String]) -> Result<Vec<DbEntry>, PersistError> {
    let mut r = WireReader::new(bytes);
    let count = r.take_u32("chunk entry count")? as usize;
    let designs: Vec<rememberr_model::Design> = take_column(&mut r, count)?;
    let numbers = take_u32_column(&mut r, count, "erratum number")?;
    let title_ids = take_u32_column(&mut r, count, "title id")?;
    let description_ids = take_u32_column(&mut r, count, "description id")?;
    let implication_ids = take_u32_column(&mut r, count, "implications id")?;
    let workaround_ids = take_u32_column(&mut r, count, "workaround text id")?;
    let status_ids = take_u32_column(&mut r, count, "status text id")?;
    let provenances: Vec<rememberr_model::Provenance> = take_column(&mut r, count)?;
    let workarounds: Vec<rememberr_model::WorkaroundCategory> = take_column(&mut r, count)?;
    let fixes: Vec<rememberr_model::FixStatus> = take_column(&mut r, count)?;

    let has_key = take_bitmap(&mut r, count, "key bitmap")?;
    let mut keys = Vec::with_capacity(count);
    for present in &has_key {
        keys.push(if *present {
            Some(r.take::<rememberr_model::UniqueKey>()?)
        } else {
            None
        });
    }
    let has_fixed_in = take_bitmap(&mut r, count, "fixed-in bitmap")?;
    let mut fixed_ins = Vec::with_capacity(count);
    for present in &has_fixed_in {
        fixed_ins.push(if *present {
            Some(resolve(strings, r.take_u32("fixed-in id")?)?.to_string())
        } else {
            None
        });
    }
    let has_annotation = take_bitmap(&mut r, count, "annotation bitmap")?;
    let mut annotations = Vec::with_capacity(count);
    for present in &has_annotation {
        annotations.push(if *present {
            Some(decode_annotation(&mut r, strings)?)
        } else {
            None
        });
    }
    if !r.is_done() {
        return Err(corrupt("trailing bytes in entry chunk"));
    }

    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        entries.push(DbEntry {
            erratum: rememberr_model::Erratum {
                id: rememberr_model::ErratumId::new(designs[i], numbers[i]),
                title: resolve(strings, title_ids[i])?.to_string(),
                description: resolve(strings, description_ids[i])?.to_string(),
                implications: resolve(strings, implication_ids[i])?.to_string(),
                workaround: resolve(strings, workaround_ids[i])?.to_string(),
                status: resolve(strings, status_ids[i])?.to_string(),
            },
            provenance: provenances[i],
            workaround: workarounds[i],
            fix: fixes[i],
            annotation: annotations[i].take(),
            key: keys[i],
            fixed_in: fixed_ins[i].take(),
        });
    }
    Ok(entries)
}

fn decode_annotation(r: &mut WireReader<'_>, strings: &[String]) -> Result<Annotation, WireError> {
    let triggers = r.take()?;
    let contexts = r.take()?;
    let effects = r.take()?;
    let complex_conditions = match r.take_u8("complex conditions flag")? {
        0 => false,
        1 => true,
        tag => {
            return Err(WireError::InvalidValue {
                what: "complex conditions flag",
                value: u64::from(tag),
            })
        }
    };
    let mut lists = [Vec::new(), Vec::new(), Vec::new()];
    for list in &mut lists {
        let len = r.take_u32("concrete description count")? as usize;
        list.reserve(len);
        for _ in 0..len {
            let id = r.take_u32("concrete description id")?;
            let text = strings
                .get(id as usize)
                .ok_or(WireError::InvalidValue {
                    what: "string id",
                    value: u64::from(id),
                })?
                .clone();
            list.push(text);
        }
    }
    let [concrete_triggers, concrete_contexts, concrete_effects] = lists;
    let msr_count = r.take_u32("msr count")? as usize;
    let mut msrs = Vec::with_capacity(msr_count);
    for _ in 0..msr_count {
        msrs.push(r.take::<MsrRef>()?);
    }
    Ok(Annotation {
        triggers,
        contexts,
        effects,
        concrete_triggers,
        concrete_contexts,
        concrete_effects,
        msrs,
        complex_conditions,
    })
}

fn take_column<T: rememberr_model::WireDecode>(
    r: &mut WireReader<'_>,
    count: usize,
) -> Result<Vec<T>, WireError> {
    let mut column = Vec::with_capacity(count);
    for _ in 0..count {
        column.push(r.take::<T>()?);
    }
    Ok(column)
}

fn take_u32_column(
    r: &mut WireReader<'_>,
    count: usize,
    what: &'static str,
) -> Result<Vec<u32>, WireError> {
    let mut column = Vec::with_capacity(count);
    for _ in 0..count {
        column.push(r.take_u32(what)?);
    }
    Ok(column)
}

fn take_bitmap(
    r: &mut WireReader<'_>,
    count: usize,
    what: &'static str,
) -> Result<Vec<bool>, WireError> {
    let bytes = r.take_bytes(count.div_ceil(8), what)?;
    Ok((0..count)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

fn resolve(strings: &[String], id: u32) -> Result<&str, PersistError> {
    strings
        .get(id as usize)
        .map(String::as_str)
        .ok_or_else(|| corrupt(format!("string id {id} out of range ({})", strings.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{load, save_as, SnapshotFormat};
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
    use rememberr_model::{Context, Effect, MsrName, Trigger};

    /// A deduplicated database with hand-attached annotations and
    /// fixed-in steppings, so every optional column is exercised. (The
    /// real classifier runs in the integration suite; a core unit test
    /// cannot depend on the classify crate without a cycle.)
    fn annotated_db(scale: f64) -> Database {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
        let base = Database::from_documents(&corpus.structured);
        let stats = base.dedup_stats();
        let mut entries = base.entries().to_vec();
        for (i, e) in entries.iter_mut().enumerate() {
            if i % 2 == 0 {
                let mut builder = Annotation::builder()
                    .trigger(Trigger::Reset, "a warm reset")
                    .context(Context::Smm, "while in SMM")
                    .effect(Effect::Hang, "the processor hangs")
                    .msr(MsrRef::canonical(MsrName::McStatus));
                if i % 6 == 0 {
                    builder = builder.complex_conditions();
                }
                e.annotation = Some(builder.build());
            }
            if i % 3 == 0 {
                e.fixed_in = Some(format!("stepping {}", i % 5));
            }
        }
        let mut db = Database::new();
        db.extend(entries);
        db.restore_dedup_stats(stats);
        db
    }

    fn binary_bytes(db: &Database) -> Vec<u8> {
        let mut buf = Vec::new();
        save_as(db, &mut buf, SnapshotFormat::Binary).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_everything_including_annotations() {
        let db = annotated_db(0.05);
        assert!(db.entries().iter().any(|e| e.annotation.is_some()));
        let bytes = binary_bytes(&db);
        let back = load(bytes.as_slice()).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.dedup_stats(), db.dedup_stats());
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let back = load(binary_bytes(&db).as_slice()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn chunk_boundary_counts_roundtrip() {
        // One over and one under a chunk boundary, plus an exact multiple.
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let full = Database::from_documents(&corpus.structured);
        for count in [
            CHUNK_ENTRIES - 1,
            CHUNK_ENTRIES,
            CHUNK_ENTRIES + 1,
            full.len().min(2 * CHUNK_ENTRIES),
        ] {
            let mut db = Database::new();
            db.extend(full.entries()[..count].to_vec());
            let back = load(binary_bytes(&db).as_slice()).unwrap();
            assert_eq!(back, db, "count {count}");
        }
    }

    #[test]
    fn string_table_deduplicates() {
        let db = annotated_db(0.1);
        let table = StringTable::build(db.entries());
        let total: usize = db
            .entries()
            .iter()
            .map(|e| {
                5 + e.annotation.as_ref().map_or(0, |a| {
                    a.concrete_triggers.len() + a.concrete_contexts.len() + a.concrete_effects.len()
                })
            })
            .sum();
        assert!(
            table.strings.len() < total,
            "table {} should collapse {total} field occurrences",
            table.strings.len()
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        bytes[0] = b'X';
        // Without the magic the stream falls through to the JSONL parser,
        // which rejects it (bad header, or invalid UTF-8 from `read_line`).
        let err = load(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::BadHeader(_) | PersistError::Io(_)),
            "expected rejection, got {err}"
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        bytes[4] = 99;
        assert!(matches!(
            load(bytes.as_slice()),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_flipped_payload_byte_via_checksum() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = load(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt(msg) if msg.contains("checksum")),
            "expected checksum rejection, got {err}"
        );
    }

    #[test]
    fn rejects_truncated_section() {
        let db = annotated_db(0.03);
        let bytes = binary_bytes(&db);
        let err = load(&bytes[..bytes.len() - 20]).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_)),
            "expected corrupt, got {err}"
        );
    }

    #[test]
    fn rejects_entry_count_mismatch_as_truncated() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        // Forge the header's entry count (bytes 16.. hold the first header
        // field after magic+version+section length) and re-stamp its
        // checksum so the count check, not the checksum, fires.
        let announced = db.len() as u64 + 7;
        bytes[16..24].copy_from_slice(&announced.to_le_bytes());
        let header_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let header_payload = bytes[16..16 + header_len].to_vec();
        let checksum_pos = bytes.len() - 24;
        bytes[checksum_pos..checksum_pos + 8]
            .copy_from_slice(&fnv1a64(&header_payload).to_le_bytes());
        assert!(matches!(
            load(bytes.as_slice()),
            Err(PersistError::Truncated { expected, found })
                if expected == db.len() + 7 && found == db.len()
        ));
    }
}
