//! The workspace's one JSON module: a value type, a recursive-descent
//! reader and a writer with two layouts. The `JsonlProbe` trace lines,
//! the `trace_view` reader and chrome export, and the `BENCH_*.json`
//! snapshots with their `bench_regress` gate all go through it (the
//! workspace builds offline, so there is no serde).
//!
//! [`Json::to_compact`] writes no whitespace: one trace line, or the
//! chrome export. [`Json::to_pretty`] is the snapshot layout: objects
//! at container depth 0–2 (the document, a workload record) and every
//! array break one item per line with a two-space indent, and deeper
//! objects (an engine timing, a shard load) sit on one line with `", "`
//! and `": "`. Floats are written `{:.3}`, non-finite ones as `null`, so
//! a committed snapshot parses and rewrites byte for byte. Integers
//! that fit a `u64` parse as [`Json::Num`], other numbers as
//! [`Json::F64`].

use std::fmt::{self, Write as _};

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Num(u64),
    /// Any other number.
    F64(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source (or insertion) order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object (first match), `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float, if it is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value on one line with no whitespace (JSONL, chrome export).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Layout::Compact);
        out
    }

    /// The value in the snapshot layout, ending in a newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Layout::Pretty(0));
        out + "\n"
    }

    fn write(&self, out: &mut String, layout: Layout) -> fmt::Result {
        match self {
            Json::Num(n) => write!(out, "{n}"),
            Json::F64(x) if x.is_finite() => write!(out, "{x:.3}"),
            Json::F64(_) | Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, layout, '[', items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_seq(out, layout, '{', members)
            }
        }
    }
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}

json_from!(u64 => Num, u32 => Num, f64 => F64, bool => Bool, &str => Str);

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as u64)
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

#[derive(Clone, Copy)]
enum Layout {
    Compact,
    /// One line with `", "` and `": "`.
    Inline,
    /// The snapshot layout at the given container depth.
    Pretty(usize),
}

fn write_seq<'a>(
    out: &mut String,
    layout: Layout,
    open: char,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let (sep, colon, child, indent) = match layout {
        Layout::Compact => (",", ":", Layout::Compact, None),
        Layout::Pretty(d) if open == '[' || d <= 2 => (",", ": ", Layout::Pretty(d + 1), Some(d)),
        Layout::Inline | Layout::Pretty(_) => (", ", ": ", Layout::Inline, None),
    };
    let newline = |out: &mut String, depth: usize| write!(out, "\n{:1$}", "", 2 * depth);
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i > 0 { sep } else { "" });
        if let Some(d) = indent {
            newline(out, d + 1)?;
        }
        if let Some(key) = key {
            write_str(out, key)?;
            out.push_str(colon);
        }
        value.write(out, child)?;
    }
    if let Some(d) = indent {
        newline(out, d)?;
    }
    out.write_char(if open == '[' { ']' } else { '}' })
}

/// The one JSON string escaper.
fn write_str(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.write_char('"')
}

/// Parses one JSON document. Escapes are limited to `\"`, `\\`, `\n`,
/// `\r`, `\t` and `\uXXXX` (no surrogate pairs): what the writer emits.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(_) => p.err("trailing garbage"),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` (after whitespace) if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => self.err(&format!("expected '{}'", b as char)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.seq(b'}'),
            Some(b'[') => self.seq(b']'),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => {
                let rest = &self.text[self.pos..];
                let words = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                match words.into_iter().find(|(word, _)| rest.starts_with(word)) {
                    Some((word, v)) => {
                        self.pos += word.len();
                        Ok(v)
                    }
                    None => self.err("expected a value"),
                }
            }
        }
    }

    /// An array (`close == b']'`) or object, the opener next.
    fn seq(&mut self, close: u8) -> Result<Json, String> {
        self.pos += 1;
        let mut members = Vec::new();
        if !self.eat(close) {
            loop {
                let mut key = String::new();
                if close == b'}' {
                    key = self.string()?;
                    self.expect(b':')?;
                }
                members.push((key, self.value()?));
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(match close {
            b'}' => Json::Obj(members),
            _ => Json::Arr(members.into_iter().map(|(_, v)| v).collect()),
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.text[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            out.push(match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4);
                        match code.and_then(char::from_u32) {
                            Some(c) => c,
                            None => return self.err("bad \\u escape in string"),
                        }
                    }
                    _ => return self.err("bad escape in string"),
                },
                c => c,
            });
        }
        self.err("unterminated string")
    }

    fn number(&mut self) -> Result<Json, String> {
        let rest = &self.text[self.pos..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '-' | '+'))
            .unwrap_or(rest.len());
        let token = &rest[..len];
        let num = token.parse().map(Json::Num);
        let num = num.or_else(|_| token.parse().map(Json::F64));
        let v = num.or_else(|_| self.err(&format!("bad number {token:?}")))?;
        self.pos += len;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_snapshots_rewrite_byte_for_byte() {
        for (name, doc) in [
            ("BENCH_sim.json", include_str!("../../../BENCH_sim.json")),
            ("BENCH_mpc.json", include_str!("../../../BENCH_mpc.json")),
            (
                "BENCH_fault.json",
                include_str!("../../../BENCH_fault.json"),
            ),
        ] {
            let v = parse(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                v.to_pretty() == doc,
                "{name} does not rewrite byte for byte"
            );
        }
    }

    #[test]
    fn write_then_parse_round_trips_in_both_layouts() {
        let v = Json::obj([
            ("quote", Json::from("a\"b")),
            ("backslash", Json::from("c\\d")),
            ("controls", Json::from("\n\r\t\u{1}\u{1f}")),
            ("non_ascii", Json::from("ü → 😀")),
            ("max", Json::Num(u64::MAX)),
            ("zero", Json::Num(0)),
            ("float", Json::F64(-2.5)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            ("null", Json::Null),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            (
                "nested",
                Json::Arr(vec![Json::obj([
                    ("deep", Json::obj([("deeper", Json::Arr(Vec::new()))])),
                    ("", Json::Obj(Vec::new())),
                ])]),
            ),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        assert!(!v.to_compact().contains('\n') && !v.to_compact().contains(": "));
    }

    #[test]
    fn pretty_layout_breaks_shallow_objects_and_all_arrays() {
        let engine = Json::obj([("engine", Json::from("seq")), ("ms", Json::F64(1.0))]);
        let doc = Json::obj([
            ("bench", Json::from("b")),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("engines", Json::Arr(vec![engine])),
                    ("empty", Json::Arr(Vec::new())),
                ])]),
            ),
        ]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"bench\": \"b\",\n  \"workloads\": [\n    {\n      \"engines\": [\n        \
             {\"engine\": \"seq\", \"ms\": 1.000}\n      ],\n      \"empty\": [\n      ]\n    }\n  ]\n}\n"
        );
        assert_eq!(
            doc.to_compact(),
            "{\"bench\":\"b\",\"workloads\":[{\"engines\":[{\"engine\":\"seq\",\"ms\":1.000}],\"empty\":[]}]}"
        );
    }

    #[test]
    fn numbers_split_into_integers_and_floats() {
        assert_eq!(parse("18446744073709551615"), Ok(Json::Num(u64::MAX)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::F64(1.8446744073709552e19))
        );
        assert_eq!(parse("-3"), Ok(Json::F64(-3.0)));
        assert_eq!(parse("1.5e2"), Ok(Json::F64(150.0)));
        assert_eq!(Json::F64(f64::NAN).to_compact(), "null");
        for bad in [
            "",
            "-",
            "1.2.3",
            "tru",
            "nul",
            "[1,]",
            "{\"a\" 1}",
            "\"\\b\"",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
