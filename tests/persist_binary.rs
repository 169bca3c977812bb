//! Binary snapshot correctness: the `rememberr-bin/v1` columnar format
//! must be an invisible throughput knob. A binary roundtrip reproduces
//! the database the JSONL oracle reproduces, re-exported JSONL after a
//! binary roundtrip is byte-identical to JSONL written directly, the
//! binary bytes are identical at every worker count, and corruption in
//! any section is rejected instead of loading a wrong database. The
//! format must also keep paying for itself: under the committed per-scale
//! byte ceilings, smaller than JSONL, and at least 3x faster to load at
//! paper scale.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::time::Instant;

use proptest::prelude::*;
use rememberr::{load, save_as, Database, PersistError, SnapshotFormat};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

/// Committed ceilings on the binary snapshot size of the classified
/// database at corpus scales 0.25 / 0.5 / 1.0. Snapshot bytes are a pure
/// function of the seeded corpus and the format, so any growth is a real
/// regression, not noise.
const BINARY_BYTE_CEILINGS: [(f64, usize); 3] = [(0.25, 201_735), (0.5, 396_078), (1.0, 784_787)];

/// The load speedup over JSONL the binary format must keep at paper scale.
const LOAD_SPEEDUP_BAR: f64 = 3.0;

/// A fully classified database at the given corpus scale.
fn classified_db(scale: f64) -> Database {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
    let mut db = Database::from_documents(&corpus.structured);
    classify_database(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
    );
    db
}

/// A fully classified database at a representative scale, built once.
fn annotated_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| classified_db(0.15))
}

fn snapshot(db: &Database, format: SnapshotFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    save_as(db, &mut buf, format).expect("in-memory save succeeds");
    buf
}

proptest! {
    // Each case generates and classifies a corpus, so keep the count
    // modest; scale and seed vary the string-table shape, annotation
    // density, and chunk fill.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn binary_roundtrip_matches_jsonl_oracle(
        scale in 0.02f64..0.06,
        seed in 0u64..1_000_000,
        classify in any::<bool>(),
    ) {
        let mut spec = CorpusSpec::scaled(scale);
        spec.seed = seed;
        let corpus = SyntheticCorpus::generate(&spec);
        let mut db = Database::from_documents(&corpus.structured);
        if classify {
            classify_database(
                &mut db,
                &Rules::standard(),
                HumanOracle::Simulated(&corpus.truth),
                &FourEyesConfig::default(),
            );
        }

        let jsonl = snapshot(&db, SnapshotFormat::Jsonl);
        let binary = snapshot(&db, SnapshotFormat::Binary);
        let via_jsonl = load(jsonl.as_slice()).expect("jsonl loads");
        let via_binary = load(binary.as_slice()).expect("binary loads");
        prop_assert_eq!(&via_jsonl, &db, "the JSONL oracle roundtrips");
        prop_assert_eq!(&via_binary, &via_jsonl, "binary agrees with the oracle");
        prop_assert_eq!(via_binary.dedup_stats(), db.dedup_stats());

        // Re-exported JSONL after a binary roundtrip is byte-identical.
        let reexport = snapshot(&via_binary, SnapshotFormat::Jsonl);
        prop_assert_eq!(reexport, jsonl);

        // The binary flavor actually buys its keep: smaller than JSONL.
        prop_assert!(binary.len() < jsonl.len());
    }
}

#[test]
fn binary_bytes_identical_across_worker_counts() {
    let db = annotated_db();
    let mut snapshots = Vec::new();
    for jobs in [1usize, 2, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        snapshots.push((jobs, snapshot(db, SnapshotFormat::Binary)));
    }
    rememberr_par::set_jobs(None);
    let (_, reference) = &snapshots[0];
    for (jobs, bytes) in &snapshots {
        assert_eq!(
            bytes, reference,
            "binary snapshot at jobs={jobs} diverged from jobs=1"
        );
    }
    // And the bytes decode back to the database they were saved from.
    assert_eq!(&load(reference.as_slice()).unwrap(), db);
}

#[test]
fn loading_is_jobs_invariant() {
    let db = annotated_db();
    let bytes = snapshot(db, SnapshotFormat::Binary);
    for jobs in [1usize, 2, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        let back = load(bytes.as_slice()).unwrap();
        assert_eq!(&back, db, "decode at jobs={jobs}");
    }
    rememberr_par::set_jobs(None);
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let db = annotated_db();
    let bytes = snapshot(db, SnapshotFormat::Binary);

    // Bad magic: the stream is no longer recognized as binary and the
    // JSONL fallback rejects it too.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'Z';
    assert!(load(bad_magic.as_slice()).is_err(), "bad magic must fail");

    // A flipped byte anywhere in a section payload trips that section's
    // checksum.
    for position in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 30] {
        let mut corrupted = bytes.clone();
        corrupted[position] ^= 0x40;
        let err = load(corrupted.as_slice()).unwrap_err();
        assert!(
            matches!(
                &err,
                PersistError::Corrupt(_) | PersistError::BadHeader(_) | PersistError::Io(_)
            ),
            "flip at {position}: got {err}"
        );
    }

    // A truncated section is rejected, never partially loaded.
    for keep in [bytes.len() - 1, bytes.len() / 2, 16] {
        let err = load(&bytes[..keep]).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_)),
            "truncation to {keep} bytes: got {err}"
        );
    }
}

#[test]
fn truncated_jsonl_is_rejected() {
    let db = annotated_db();
    let jsonl = String::from_utf8(snapshot(db, SnapshotFormat::Jsonl)).unwrap();
    let truncated: String = jsonl
        .lines()
        .take(db.len()) // header + all but the last record
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(matches!(
        load(truncated.as_bytes()),
        Err(PersistError::Truncated { expected, found })
            if expected == db.len() && found == db.len() - 1
    ));
}

#[test]
fn binary_snapshots_stay_under_the_committed_byte_ceilings() {
    for (scale, ceiling) in BINARY_BYTE_CEILINGS {
        let db = classified_db(scale);
        let binary = snapshot(&db, SnapshotFormat::Binary).len();
        let jsonl = snapshot(&db, SnapshotFormat::Jsonl).len();
        assert!(
            binary <= ceiling,
            "scale {scale}: binary snapshot {binary} bytes exceeds the committed ceiling {ceiling}"
        );
        assert!(
            binary < jsonl,
            "scale {scale}: binary snapshot {binary} bytes is not smaller than JSONL {jsonl}"
        );
    }
}

#[test]
fn binary_loads_at_least_three_times_faster_than_jsonl() {
    let db = classified_db(1.0);
    let jsonl = snapshot(&db, SnapshotFormat::Jsonl);
    let binary = snapshot(&db, SnapshotFormat::Binary);
    // Interleave the formats so a slow phase of the machine hits both, and
    // compare medians of five loads each.
    let mut jsonl_s = Vec::new();
    let mut binary_s = Vec::new();
    for _ in 0..5 {
        for (bytes, samples) in [(&jsonl, &mut jsonl_s), (&binary, &mut binary_s)] {
            let start = Instant::now();
            let back = load(bytes.as_slice()).expect("snapshot loads");
            samples.push(start.elapsed().as_secs_f64());
            assert_eq!(back, db);
        }
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let speedup = median(&mut jsonl_s) / median(&mut binary_s);
    assert!(
        speedup >= LOAD_SPEEDUP_BAR,
        "binary load is only {speedup:.2}x faster than JSONL (bar: {LOAD_SPEEDUP_BAR}x)"
    );
}
