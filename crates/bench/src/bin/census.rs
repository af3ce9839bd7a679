//! Product line census: for each crate under `crates/`, the lines of its
//! `src/` tree that lie outside every `#[cfg(test)]` item, then the total.
//!
//! ```text
//! cargo run --release -p g80-bench --bin census [-- <workspace root>]
//! ```
//!
//! The root defaults to this workspace's. A `#[cfg(test)]` line starts a
//! skipped item that runs through the closing brace of its body, or through
//! its `;` when it has none; braces in comments, strings and character
//! literals do not count. Every other line counts, blank and comment lines
//! included, so two censuses compare only under this one method.

#![warn(clippy::too_many_lines)]

use std::fs;
use std::path::{Path, PathBuf};

/// Lines of `src` outside `#[cfg(test)]` items.
fn product_lines(src: &str) -> usize {
    let mut count = 0;
    // Inside a test item: its bracket depth, and whether its body opened.
    let mut skipping: Option<(usize, bool)> = None;
    for line in blank_literals(src).lines() {
        let Some((depth, opened)) = &mut skipping else {
            if line.trim() == "#[cfg(test)]" {
                skipping = Some((0, false));
            } else {
                count += 1;
            }
            continue;
        };
        let mut done = false;
        for c in line.chars() {
            match c {
                '{' | '(' | '[' => {
                    *depth += 1;
                    *opened |= c == '{';
                }
                '}' | ')' | ']' => {
                    *depth -= 1;
                    done |= *depth == 0 && *opened;
                }
                ';' => done |= *depth == 0 && !*opened,
                _ => {}
            }
        }
        if done {
            skipping = None;
        }
    }
    count
}

/// `src` with every line comment, string and character literal blanked
/// (newlines kept), so the brackets and semicolons left are code. Block
/// comments are not recognised: the workspace has none.
fn blank_literals(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < s.len() {
        let end = literal_end(&s, i).min(s.len());
        if end == i {
            out.push(s[i]);
            i += 1;
        } else {
            out.extend(s[i..end].iter().map(|&c| if c == '\n' { c } else { ' ' }));
            i = end;
        }
    }
    out
}

/// The end of the comment or literal that starts at `s[i]`, or `i` when
/// none does (a lifetime's `'` starts none).
fn literal_end(s: &[char], i: usize) -> usize {
    let find = |from: usize, c: char| (from..s.len()).find(|&j| s[j] == c).unwrap_or(s.len());
    let hashes = s[i + 1..].iter().take_while(|&&c| c == '#').count();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    match &s[i..] {
        ['/', '/', ..] => find(i, '\n'),
        ['"', ..] => {
            let mut j = i + 1;
            while j < s.len() && s[j] != '"' {
                j += if s[j] == '\\' { 2 } else { 1 };
            }
            j + 1
        }
        ['r', ..] if s.get(i + 1 + hashes) == Some(&'"') && (i == 0 || !ident(s[i - 1])) => {
            let closes = |j: &usize| s[j + 1..].iter().take(hashes).all(|&c| c == '#');
            let j = (i + 2 + hashes..s.len()).find(|j| s[*j] == '"' && closes(j));
            j.map_or(s.len(), |j| j + 1 + hashes)
        }
        ['\'', '\\', ..] => find(i + 3, '\'') + 1,
        ['\'', _, '\'', ..] => i + 3,
        _ => i,
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read <root>/crates")
        .map(|e| e.expect("read a directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();
    let mut total = 0;
    for krate in crates {
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        let read = |f: &PathBuf| fs::read_to_string(f).expect("read a source file");
        let lines: usize = files.iter().map(|f| product_lines(&read(f))).sum();
        let name = krate.file_name().unwrap_or_default().to_string_lossy();
        println!("{name:<8} {lines:>6}");
        total += lines;
    }
    println!("{:<8} {total:>6}", "total");
}

#[cfg(test)]
mod tests {
    use super::product_lines;

    /// A test-only fn in the middle of a file and a trailing test module
    /// are skipped through their closing braces, whatever braces their
    /// literals and comments hold; every other line counts.
    #[test]
    fn skips_test_items_through_their_closing_brace() {
        let src = r##"//! A module.

pub fn product() -> &'static str {
    "{"
}

#[cfg(test)]
fn helper<'a>(s: &'a str) -> [char; 2] {
    // a stray } in a comment
    let _ = (r#"}}"#, '}', '\'', "\"}", "#[cfg(test)]");
    if s.is_empty() { ['{', '{'] } else { ['}', '\u{7d}'] }
}

#[cfg(test)]
use std::collections::HashMap;

/// Counted.
pub struct After;

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::product(), "{");
    }
}
"##;
        // `//!` through the blank before `helper`, the blank after it, the
        // one after the `use`, and `/// Counted.` through the blank before
        // the module.
        assert_eq!(product_lines(src), 6 + 1 + 1 + 3);
    }

    #[test]
    fn a_file_without_test_items_counts_every_line() {
        assert_eq!(product_lines("fn a() {}\n\n// }\nfn b() { '{'; }\n"), 4);
    }
}
