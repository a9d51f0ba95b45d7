//! Rule `orphan-pub`: public library items that nothing calls.
//!
//! The rule indexes every `pub` `fn`/`struct`/`enum`/`trait`/`union`/
//! `const`/`type`/`static` in library files, at any nesting depth (so
//! inherent-impl methods count), outside `#[cfg(test)]`. `pub(…)`
//! items, `pub mod` and `pub use` are not indexed.
//!
//! An item is live when its name appears as an identifier in the code
//! channel of some scanned file anywhere except:
//!
//! * its own body — for a type, its same-file `impl … Name` and
//!   `impl … for Name` blocks included;
//! * its defining file's `#[cfg(test)]` regions;
//! * a `pub use` statement;
//! * the body of an item already found to be an orphan.
//!
//! An item declared inside an orphan's body (a method of an orphan
//! type) is an orphan too. The pass repeats until nothing changes, so
//! helpers that only orphans call are found as well.
//!
//! Matching is by name only: two items that share a name keep each
//! other alive. The rule can therefore miss an orphan, but it never
//! flags an item that something calls.

use std::collections::BTreeMap;

use crate::lexer::LexedFile;
use crate::rules::{cfg_test_mask, is_ident_byte, Finding, RuleId};

/// A `(line, column)` position in a file's code channel, both 0-based.
type Pos = (usize, usize);

/// One code-channel token: an identifier/number run or a single
/// punctuation character.
struct Tok<'a> {
    pos: Pos,
    text: &'a str,
}

impl Tok<'_> {
    fn is_ident(&self) -> bool {
        self.text
            .as_bytes()
            .first()
            .is_some_and(|&b| is_ident_byte(b) && !b.is_ascii_digit())
    }
}

/// An indexed `pub` item.
struct Item {
    kind: &'static str,
    name: String,
    file: usize,
    decl: Pos,
    /// Its own body, plus its same-file impl blocks for a type.
    regions: Vec<(Pos, Pos)>,
    /// The innermost item whose body holds this one.
    parent: Option<usize>,
}

/// One appearance of an indexed name.
struct Occurrence {
    file: usize,
    pos: Pos,
    in_cfg_test: bool,
}

/// Runs `orphan-pub` over a set of lexed files. Each entry is
/// `(path, lexed, index)`: `index` marks a library file whose `pub`
/// items are indexed; every file is searched for callers.
pub(crate) fn orphan_pub(files: &[(&str, &LexedFile, bool)]) -> Vec<Finding> {
    let toks: Vec<Vec<Tok>> = files.iter().map(|(_, lexed, _)| tokenize(lexed)).collect();
    let masks: Vec<Vec<bool>> = files.iter().map(|(_, l, _)| cfg_test_mask(l)).collect();

    let mut items: Vec<Item> = Vec::new();
    let mut reexports: Vec<Vec<(Pos, Pos)>> = Vec::with_capacity(files.len());
    for (file, toks) in toks.iter().enumerate() {
        let first = items.len();
        reexports.push(scan_items(
            file,
            toks,
            &masks[file],
            files[file].2,
            &mut items,
        ));
        attach_impls(toks, &masks[file], &mut items[first..]);
        assign_parents(&mut items, first);
    }

    let mut occurrences: BTreeMap<&str, Vec<Occurrence>> = items
        .iter()
        .map(|i| (i.name.as_str(), Vec::new()))
        .collect();
    for (file, toks) in toks.iter().enumerate() {
        for t in toks.iter().filter(|t| t.is_ident()) {
            if reexports[file].iter().any(|r| within(r, t.pos)) {
                continue;
            }
            if let Some(list) = occurrences.get_mut(t.text) {
                list.push(Occurrence {
                    file,
                    pos: t.pos,
                    in_cfg_test: masks[file][t.pos.0],
                });
            }
        }
    }

    let mut orphan = vec![false; items.len()];
    loop {
        let mut changed = false;
        for k in 0..items.len() {
            if orphan[k] {
                continue;
            }
            let item = &items[k];
            let in_orphan = |o: &Occurrence| {
                items.iter().zip(&orphan).any(|(other, &dead)| {
                    dead && other.file == o.file && other.regions.iter().any(|r| within(r, o.pos))
                })
            };
            let called = || {
                occurrences[item.name.as_str()].iter().any(|o| {
                    let own = o.file == item.file
                        && (o.in_cfg_test || item.regions.iter().any(|r| within(r, o.pos)));
                    !own && !in_orphan(o)
                })
            };
            if item.parent.is_some_and(|p| orphan[p]) || !called() {
                orphan[k] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    items
        .iter()
        .zip(&orphan)
        .filter(|(_, &dead)| dead)
        .map(|(item, _)| {
            let (path, lexed, _) = files[item.file];
            Finding {
                rule: RuleId::OrphanPub,
                path: path.to_string(),
                line: item.decl.0 + 1,
                message: format!(
                    "`pub {} {}` has no caller: its name appears only in its own body, its \
                     file's #[cfg(test)] code, `pub use` re-exports or other orphans — delete \
                     it, or justify intended API with a pragma",
                    item.kind, item.name
                ),
                snippet: lexed.code[item.decl.0].trim().to_string(),
            }
        })
        .collect()
}

/// Splits the code channel into tokens.
fn tokenize(lexed: &LexedFile) -> Vec<Tok<'_>> {
    let mut out = Vec::new();
    for (line, code) in lexed.code.iter().enumerate() {
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            if is_ident_byte(bytes[i]) {
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
            } else {
                i += code[i..].chars().next().map_or(1, char::len_utf8);
                if bytes[start].is_ascii_whitespace() {
                    continue;
                }
            }
            out.push(Tok {
                pos: (line, start),
                text: &code[start..i],
            });
        }
    }
    out
}

/// The item keywords the rule indexes.
const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "union", "const", "type", "static",
];

/// Indexes the file's `pub` items (when `index` is set) and returns the
/// spans of its `pub use` statements.
fn scan_items(
    file: usize,
    toks: &[Tok],
    mask: &[bool],
    index: bool,
    items: &mut Vec<Item>,
) -> Vec<(Pos, Pos)> {
    let mut reexports = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text != "pub" {
            continue;
        }
        let text = |j: usize| toks.get(j).map_or("", |t| t.text);
        let mut j = i + 1;
        let restricted = text(j) == "(";
        if restricted {
            j = matching_close(toks, j) + 1;
        }
        while matches!(text(j), "async" | "unsafe")
            || (text(j) == "const" && matches!(text(j + 1), "fn" | "async" | "unsafe"))
        {
            j += 1;
        }
        if text(j) == "use" && !restricted {
            reexports.push((t.pos, toks[item_end(toks, j + 1, false)].pos));
            continue;
        }
        let Some(&kind) = KINDS.iter().find(|&&k| k == text(j)) else {
            continue;
        };
        if restricted || !index || mask[t.pos.0] {
            continue;
        }
        let mut n = j + 1;
        if kind == "static" && text(n) == "mut" {
            n += 1;
        }
        let Some(name) = toks.get(n).filter(|t| t.is_ident()) else {
            continue;
        };
        let braced = matches!(kind, "fn" | "struct" | "enum" | "trait" | "union");
        let end = item_end(toks, n + 1, braced);
        items.push(Item {
            kind,
            name: name.text.to_string(),
            file,
            decl: t.pos,
            regions: vec![(t.pos, toks[end].pos)],
            parent: None,
        });
    }
    reexports
}

/// Adds each `impl … Name` / `impl … for Name` block of the file to the
/// regions of the same-file type items called `Name`.
fn attach_impls(toks: &[Tok], mask: &[bool], items: &mut [Item]) {
    for (i, t) in toks.iter().enumerate() {
        // An impl block starts an item; `-> impl Trait` and
        // `x: impl Fn` are types.
        let starts_item = i == 0 || matches!(toks[i - 1].text, "}" | ";" | "]" | "{");
        if t.text != "impl" || !starts_item || mask[t.pos.0] {
            continue;
        }
        let Some(open) = (i + 1..toks.len()).find(|&j| toks[j].text == "{") else {
            continue;
        };
        // The self type is the last name outside generics, after any
        // `for`: `impl<T> Name<T>`, `impl Trait for &'a Name`.
        let header = &toks[i + 1..open];
        let (mut depth, mut name) = (0i32, None);
        for (k, h) in header.iter().enumerate() {
            match h.text {
                "<" => depth += 1,
                ">" if k == 0 || header[k - 1].text != "-" => depth -= 1,
                "where" if depth == 0 => break,
                "for" if depth == 0 => name = None,
                _ if depth == 0 && h.is_ident() => name = Some(h.text),
                _ => {}
            }
        }
        let region = (t.pos, toks[matching_close(toks, open)].pos);
        for item in items.iter_mut() {
            let is_type = matches!(item.kind, "struct" | "enum" | "trait" | "union" | "type");
            if is_type && Some(item.name.as_str()) == name {
                item.regions.push(region);
            }
        }
    }
}

/// Sets each of `items[first..]`'s parent: the same-file item whose
/// region holding the declaration starts last.
fn assign_parents(items: &mut [Item], first: usize) {
    for k in first..items.len() {
        let decl = items[k].decl;
        items[k].parent = (first..items.len())
            .filter(|&p| p != k)
            .filter_map(|p| {
                let start = items[p]
                    .regions
                    .iter()
                    .filter(|r| within(r, decl))
                    .map(|r| r.0)
                    .max()?;
                Some((start, p))
            })
            .max()
            .map(|(_, p)| p);
    }
}

fn within(region: &(Pos, Pos), pos: Pos) -> bool {
    region.0 <= pos && pos <= region.1
}

/// Index of the bracket closing the `(`/`[`/`{` at `open` (the last
/// token when the file ends first).
fn matching_close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}

/// Index of the token ending the item whose header continues at
/// `from`: the first top-level `;`, or — for a `braced` item — the `}`
/// closing its first top-level `{`.
fn item_end(toks: &[Tok], from: usize, braced: bool) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.text {
            ";" if depth == 0 => return j,
            "{" if depth == 0 && braced => return matching_close(toks, j),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}
