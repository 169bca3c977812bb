//! `rememberr-cli extract` over a corpus with one corrupted page stream:
//! every case must end with exit 0 (the damage is repaired or reported as
//! a defect) or exit 1 with an `error:` message — never a panic (exit 101).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rememberr-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rememberr-corrupt-{}-{name}", std::process::id()))
}

/// The page streams of a generated corpus, as `(path, text)`.
fn page_streams(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut streams: Vec<(PathBuf, String)> = fs::read_dir(dir)
        .expect("corpus dir is readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .map(|p| {
            let text = fs::read_to_string(&p).expect("page stream is text");
            (p, text)
        })
        .collect();
    streams.sort();
    streams
}

/// The largest stream among those `keep` accepts.
fn largest(streams: &[(PathBuf, String)], keep: impl Fn(&str) -> bool) -> &(PathBuf, String) {
    streams
        .iter()
        .filter(|(_, text)| keep(text))
        .max_by_key(|(_, text)| text.len())
        .expect("the corpus has a matching stream")
}

/// Cuts the text in the middle of a line near its midpoint.
fn truncate_mid_line(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut at = text.len() / 2;
    while at < text.len()
        && (bytes[at] == b'\n' || bytes[at - 1] == b'\n' || !text.is_char_boundary(at))
    {
        at += 1;
    }
    text[..at].to_string()
}

/// XORs 200 pseudo-random bytes with a non-zero mask (xorshift64, fixed
/// seed), so the result is usually no longer valid UTF-8.
fn flip_bytes(text: &str) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..200 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let at = (state % bytes.len() as u64) as usize;
        bytes[at] ^= (state >> 32) as u8 | 1;
    }
    bytes
}

/// Replaces the first revision's added-list with a range spanning every
/// `u32` erratum number.
fn huge_added_range(text: &str) -> String {
    let start = text.find("Added errat").expect("an added-list");
    let end = start
        + text[start..]
            .find('.')
            .expect("the list ends with a period");
    format!(
        "{}Added errata 1-4294967295{}",
        &text[..start],
        &text[end..]
    )
}

#[test]
fn corrupted_page_streams_never_panic_extract() {
    let corpus = tmp("corpus");
    let out = bin()
        .args(["generate", "--out", corpus.to_str().unwrap()])
        .args(["--scale", "0.05", "--seed", "7"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let streams = page_streams(&corpus);
    // The largest stream with page breaks (form feeds), and the largest AMD
    // stream (bare erratum numbers, so a numeric range parses).
    let paged = largest(&streams, |t| t.contains('\u{c}'));
    let amd = largest(&streams, |t| {
        t.contains("AMD Processor") && t.contains("Added errat")
    });

    let heading = rememberr_extract::ERRATA_HEADING;
    let cases: Vec<(&str, &(PathBuf, String), Vec<u8>)> = vec![
        ("empty file", paged, Vec::new()),
        ("form feeds only", paged, b"\x0c\x0c\x0c\x0c".to_vec()),
        (
            "stripped form feeds",
            paged,
            paged.1.replace('\u{c}', "").into_bytes(),
        ),
        (
            "truncated mid-line",
            paged,
            truncate_mid_line(&paged.1).into_bytes(),
        ),
        (
            "duplicated errata heading",
            paged,
            paged
                .1
                .replacen(heading, &format!("{heading}\n{heading}"), 1)
                .into_bytes(),
        ),
        ("200 byte flips", paged, flip_bytes(&paged.1)),
        (
            "huge added range",
            amd,
            huge_added_range(&amd.1).into_bytes(),
        ),
    ];

    let mut failures = Vec::new();
    for (name, (target, original), corrupted) in cases {
        assert_ne!(
            corrupted,
            original.as_bytes(),
            "{name}: corruption changed nothing"
        );
        let dir = tmp(&name.replace(' ', "-"));
        fs::create_dir_all(&dir).unwrap();
        for (path, text) in &streams {
            let file = dir.join(path.file_name().unwrap());
            if path == target {
                fs::write(file, &corrupted).unwrap();
            } else {
                fs::write(file, text).unwrap();
            }
        }
        let db = dir.join("db.jsonl");
        let out = bin()
            .args(["extract", "--docs", dir.to_str().unwrap()])
            .args(["--out", db.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        match out.status.code() {
            Some(0) => {}
            Some(1) if stderr.contains("error:") => {}
            code => failures.push(format!("{name}: exit {code:?}, stderr: {stderr}")),
        }
        fs::remove_dir_all(&dir).ok();
    }
    fs::remove_dir_all(&corpus).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
