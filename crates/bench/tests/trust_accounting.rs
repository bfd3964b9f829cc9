//! `reproduce trust` counts implementation lines: every `#[cfg(test)]`
//! item is left out whole, wherever in the file it sits, and nothing
//! else is.

use rae_bench::experiments::{implementation_lines, trust_accounting};

/// 40 lines; the three `#[cfg(test)]` items span 8 + 2 + 7 of them.
const FIXTURE: &str = r##"//! A cache.
use std::fmt;

pub struct Cache {
    len: usize,
}

impl Cache {
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn peek(&self) -> char {
        let _brace = "}\"";
        let _raw = r#"} " { }"#;
        // a stray } in a comment
        /* and { in a block comment */
        '}'
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod cache_tests;

fn first<'a>(s: &'a str) -> Option<char> {
    s.chars().next().filter(|&c| c != '\'')
}

#[cfg(test)]
mod tests {
    #[test]
    fn braces() {
        assert_eq!('{', '\u{7b}');
    }
}
"##;

#[test]
fn trust_count_skips_each_test_item_whole() {
    assert_eq!(FIXTURE.lines().count(), 40);
    assert_eq!(implementation_lines(FIXTURE), 40 - 8 - 2 - 7);
}

#[test]
fn trust_count_of_a_file_without_test_items_is_its_length() {
    let src = "fn main() {\n    let s = \"#[cfg(test)]\";\n}\n";
    assert_eq!(implementation_lines(src), 3);
}

#[test]
fn trust_table_lists_the_standby() {
    let out = trust_accounting();
    assert!(out.contains("\nstandby     trusted"), "{out}");
}
