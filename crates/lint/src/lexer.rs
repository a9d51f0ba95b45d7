//! A small Rust lexer that separates code from comments and blanks out
//! literal contents.
//!
//! The rule engine matches textual patterns (`.unwrap()`, `Instant::now`,
//! …) against *code*, so the lexer's job is to make sure a pattern inside
//! a string literal, a doc example or a comment can never fire, and that
//! a pragma inside a string literal is never honoured. It handles the
//! constructs that trip up naive line scanners:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals with escapes (`"a \" b"`), byte strings, and raw
//!   strings with arbitrary hash fences (`r##"…"##`, `br#"…"#`);
//! * char literals vs. lifetimes (`'a'` is a literal, `'a` in
//!   `&'a str` is not);
//! * raw identifiers (`r#match` is an identifier, not a raw string).
//!
//! Literal *contents* are replaced with spaces (quotes are kept), so
//! byte offsets within a line survive and `.expect("msg")` still
//! matches `.expect(` while `"call .unwrap() please"` matches nothing.

/// A source file split into parallel per-line code and comment channels.
///
/// Both vectors have one entry per physical source line. `code[i]` is
/// line `i + 1` with comments removed and literal contents blanked;
/// `comment[i]` is the concatenated comment text that appears on that
/// line (pragmas are parsed from this channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexedFile {
    /// Per-line code with comments stripped and literals blanked.
    pub code: Vec<String>,
    /// Per-line comment text (without the `//` / `/*` markers).
    pub comment: Vec<String>,
}

enum State {
    /// Ordinary code.
    Normal,
    /// Inside `// …` until end of line.
    LineComment,
    /// Inside `/* … */`, tracking nesting depth.
    BlockComment(u32),
    /// Inside a `"…"` string (escape-aware).
    Str,
    /// Inside a raw string closed by `"` followed by this many `#`s.
    RawStr(u32),
    /// Inside a `'…'` char literal (escape-aware).
    CharLit,
}

/// Lexes `source` into per-line code and comment channels.
///
/// The lexer is intentionally forgiving: on input that is not valid
/// Rust (an unterminated string, say) it degrades to treating the rest
/// of the file as literal content rather than failing. The linter runs
/// on sources that `rustc` already accepted, so this path only matters
/// for fixtures.
pub fn lex(source: &str) -> LexedFile {
    let mut code: Vec<String> = Vec::new();
    let mut comment: Vec<String> = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();

    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut state = State::Normal;
    // The last code character, used for identifier-boundary checks when
    // deciding whether `r` / `b` starts a raw or byte string.
    let mut prev_code: Option<char> = None;

    let flush_line = |code: &mut Vec<String>,
                      comment: &mut Vec<String>,
                      code_line: &mut String,
                      comment_line: &mut String| {
        code.push(std::mem::take(code_line));
        comment.push(std::mem::take(comment_line));
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::LineComment) {
                state = State::Normal;
            }
            flush_line(&mut code, &mut comment, &mut code_line, &mut comment_line);
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code_line.push('"');
                    prev_code = Some('"');
                    state = State::Str;
                    i += 1;
                } else if c == '\'' {
                    // Char literal or lifetime? `'\…'` and `'x'` are
                    // literals; everything else (`'a`, `'static`, `'_`)
                    // is a lifetime and stays in the code channel.
                    let is_escape = next == Some('\\');
                    let closes_after_one = chars.get(i + 2).copied() == Some('\'');
                    if is_escape || (next.is_some() && next != Some('\'') && closes_after_one) {
                        code_line.push('\'');
                        prev_code = Some('\'');
                        state = State::CharLit;
                        i += 1;
                    } else {
                        code_line.push(c);
                        prev_code = Some(c);
                        i += 1;
                    }
                } else if (c == 'r' || c == 'b') && !is_ident_char(prev_code) {
                    // Candidate raw/byte string prefix: one of
                    // r" r#" b" br" br#" rb… (invalid) — scan the
                    // prefix; fall back to plain code when it is a raw
                    // identifier (`r#match`) or ordinary ident.
                    if let Some((skip, hashes)) = raw_string_prefix(&chars[i..]) {
                        for k in 0..skip {
                            code_line.push(chars[i + k]);
                        }
                        state = if hashes == 0 {
                            State::Str
                        } else {
                            State::RawStr(hashes)
                        };
                        // A zero-hash prefix like `b"` is an ordinary
                        // (escape-aware) string; `r"` has no escapes
                        // but also no way to embed `"`, so Str works
                        // for it too… except `r"a\"` — in a raw string
                        // `\` is literal and the string ends at `"`.
                        if hashes == 0 && chars[i] == 'r' {
                            state = State::RawStr(0);
                        }
                        if hashes == 0 && chars[i] == 'b' && chars.get(i + 1) == Some(&'r') {
                            state = State::RawStr(0);
                        }
                        prev_code = Some('"');
                        i += skip;
                    } else {
                        code_line.push(c);
                        prev_code = Some(c);
                        i += 1;
                    }
                } else {
                    code_line.push(c);
                    prev_code = Some(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment_line.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    comment_line.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(depth - 1);
                        comment_line.push_str("*/");
                    }
                    i += 2;
                } else {
                    comment_line.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Escape: blank both characters.
                    code_line.push(' ');
                    if chars.get(i + 1).is_some_and(|&e| e != '\n') {
                        code_line.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    code_line.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                    code_line.push('"');
                    for _ in 0..hashes {
                        code_line.push('#');
                    }
                    state = State::Normal;
                    i += 1 + hashes as usize;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            State::CharLit => {
                if c == '\\' {
                    code_line.push(' ');
                    if chars.get(i + 1).is_some_and(|&e| e != '\n') {
                        code_line.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    code_line.push('\'');
                    state = State::Normal;
                    i += 1;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
        }
    }
    flush_line(&mut code, &mut comment, &mut code_line, &mut comment_line);
    LexedFile { code, comment }
}

fn is_ident_char(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `rest` starts a raw/byte string literal (`r"`, `r#"`, `b"`,
/// `br##"`, …), returns `(prefix_len_through_opening_quote, hashes)`.
/// Raw identifiers (`r#match`) and plain identifiers return `None`.
fn raw_string_prefix(rest: &[char]) -> Option<(usize, u32)> {
    let mut j = 0;
    if rest.first() == Some(&'b') {
        j += 1;
    }
    if rest.get(j) == Some(&'r') {
        j += 1;
    }
    if j == 0 {
        return None;
    }
    let mut hashes = 0u32;
    while rest.get(j + hashes as usize) == Some(&'#') {
        hashes += 1;
    }
    let j = j + hashes as usize;
    if rest.get(j) == Some(&'"') {
        // `b#"` is not a literal prefix (needs the `r`); reject hashes
        // without an `r`.
        if hashes > 0 && !rest[..j].contains(&'r') {
            return None;
        }
        Some((j + 1, hashes))
    } else {
        None
    }
}

/// Does `rest` (the characters *after* a `"`) close a raw string with
/// this many fence hashes?
fn closes_raw(rest: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| rest.get(k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        lex(src).code
    }

    #[test]
    fn line_comment_goes_to_comment_channel() {
        let f = lex("let x = 1; // trailing note\n");
        assert_eq!(f.code[0], "let x = 1; ");
        assert_eq!(f.comment[0], " trailing note");
    }

    #[test]
    fn nested_block_comments() {
        let f = lex("a /* outer /* inner */ still comment */ b\n");
        assert_eq!(f.code[0], "a  b");
        assert!(f.comment[0].contains("inner"));
        assert!(f.comment[0].contains("still comment"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let f = lex("x /* one\ntwo */ y\n");
        assert_eq!(f.code[0], "x ");
        assert_eq!(f.code[1], " y");
        assert_eq!(f.comment[0], " one");
        assert_eq!(f.comment[1], "two ");
    }

    #[test]
    fn string_contents_are_blanked() {
        let f = lex(r#"let s = "call .unwrap() now";"#);
        assert!(!f.code[0].contains(".unwrap()"));
        assert!(f.code[0].starts_with("let s = \""));
        assert!(f.code[0].ends_with("\";"));
    }

    #[test]
    fn slashes_inside_string_are_not_comments() {
        let f = lex(r#"let url = "https://example.org"; let y = 2;"#);
        assert!(f.code[0].contains("let y = 2;"));
        assert_eq!(f.comment[0], "");
    }

    #[test]
    fn escaped_quote_stays_inside_string() {
        let f = lex(r#"let s = "a \" b .unwrap() c"; done();"#);
        assert!(!f.code[0].contains(".unwrap()"));
        assert!(f.code[0].contains("done();"));
    }

    #[test]
    fn raw_string_with_hashes() {
        let f = lex(r###"let s = r#"inner " quote .expect( here"#; after();"###);
        assert!(!f.code[0].contains(".expect("));
        assert!(f.code[0].contains("after();"));
    }

    #[test]
    fn raw_string_two_hashes_ignores_single_hash_close() {
        let src = "let s = r##\"has \"# inside\"##; tail();\n";
        let f = lex(src);
        assert!(!f.code[0].contains("inside"));
        assert!(f.code[0].contains("tail();"));
    }

    #[test]
    fn byte_and_byte_raw_strings() {
        let f = lex(r##"let a = b"panic!("; let b = br#"panic!("#; end();"##);
        assert!(!f.code[0].contains("panic!"));
        assert!(f.code[0].contains("end();"));
    }

    #[test]
    fn raw_identifier_is_code_not_string() {
        let f = lex("let r#match = 1; let x = r#match;\n");
        assert!(f.code[0].contains("r#match"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let f = lex("fn f<'a>(x: &'a str) -> char { '\"' }\n");
        // The lifetime survives as code; the quote char literal is
        // blanked and does not open a string.
        assert!(f.code[0].contains("&'a str"));
        assert!(f.code[0].contains('{'));
        assert!(f.code[0].contains('}'));
        let g = lex("let c = 'x'; let d = '\\n'; rest();\n");
        assert!(g.code[0].contains("rest();"));
    }

    #[test]
    fn comment_markers_inside_strings_do_not_open_comments() {
        let f = lex("let s = \"/* not a comment */\"; live();\n");
        assert!(f.code[0].contains("live();"));
        assert_eq!(f.comment[0], "");
    }

    #[test]
    fn line_counts_match_input() {
        let src = "a\nb\nc";
        assert_eq!(code_of(src).len(), 3);
        let src_nl = "a\nb\nc\n";
        // A trailing newline yields one final empty line, like `wc -l`
        // plus the remainder.
        assert_eq!(code_of(src_nl).len(), 4);
    }

    #[test]
    fn unterminated_string_degrades_gracefully() {
        let f = lex("let s = \"never closed .unwrap()\nnext .unwrap()\n");
        assert!(!f.code[0].contains(".unwrap()"));
        // Inside the (unterminated) string, later lines stay blanked
        // rather than producing phantom findings.
        assert!(!f.code[1].contains(".unwrap()"));
    }
}
