//! The workspace's one JSON writer and one JSON reader.
//!
//! Every report, bench row and gateway line is rendered through
//! [`object`] and [`array()`], and every line read back goes through
//! [`parse`], so no other crate formats or scans JSON by hand. The
//! writer renders numbers exactly as `format!` does (`Display`, or
//! `{:.N}` for [`Object::fixed`]); a non-finite `f64` renders as
//! `NaN`/`inf`, which is not JSON, so callers keep such values out.
//!
//! The reader takes daemon output off a TCP socket, so it never panics:
//! malformed text, trailing garbage, invalid escapes (including UTF-16
//! surrogates — the writer emits non-ASCII text as UTF-8), raw control
//! characters in strings and nesting deeper than [`MAX_DEPTH`] all
//! yield `None`.

use std::fmt::{Display, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// Values [`Object::val`] writes as they `Display`: unsigned integers,
/// `f64` and `bool`.
pub trait Scalar: Display {}
impl Scalar for u8 {}
impl Scalar for u32 {}
impl Scalar for u64 {}
impl Scalar for usize {}
impl Scalar for f64 {}
impl Scalar for bool {}

/// A JSON object being written, member by member, in call order.
#[derive(Debug, Clone)]
pub struct Object(String);

/// Starts an empty JSON object.
pub fn object() -> Object {
    Object(String::from("{"))
}

impl Object {
    fn member(mut self, key: &str, value: impl Display) -> Object {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "{}:{value}", string(key));
        self
    }

    /// A number or boolean member, rendered with `Display` (an `f64` in
    /// its shortest round-trip form: `2`, `4000.5`).
    pub fn val(self, key: &str, value: impl Scalar) -> Object {
        self.member(key, value)
    }

    /// A float member at a fixed number of decimals (`{:.N}`).
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Object {
        self.member(key, format_args!("{value:.decimals$}"))
    }

    /// A string member, escaped.
    pub fn str(self, key: &str, value: &str) -> Object {
        self.member(key, string(value))
    }

    /// A member whose value is JSON already rendered by this module.
    pub fn raw(self, key: &str, json: &str) -> Object {
        self.member(key, json)
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// A JSON array of already-rendered elements, e.g.
/// `array(counts.iter().map(u64::to_string))`.
pub fn array<I>(items: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let items: Vec<&str> = items.iter().map(AsRef::as_ref).collect();
    format!("[{}]", items.join(","))
}

/// A JSON string value: quoted, with `"` and `\` backslashed and
/// control characters as `\n`/`\r`/`\t` or `\u00XX`.
pub fn string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        let _ = match c {
            '"' => write!(out, "\\\""),
            '\\' => write!(out, "\\\\"),
            '\n' => write!(out, "\\n"),
            '\r' => write!(out, "\\r"),
            '\t' => write!(out, "\\t"),
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)),
            c => write!(out, "{c}"),
        };
    }
    out.push('"');
    out
}

/// A parsed JSON value. Numbers keep their source text, so
/// [`Value::as_u64`] is exact for every `u64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number that is an integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()?.parse().ok()
    }

    fn number(&self) -> Option<&str> {
        let Value::Number(text) = self else {
            return None;
        };
        Some(text)
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(items) = self else {
            return None;
        };
        Some(items)
    }
}

/// Parses one JSON value spanning all of `text` (surrounding whitespace
/// allowed); `None` on any malformation.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser { s: text, i: 0 };
    let value = p.value(0)?;
    p.ws();
    (p.i == text.len()).then_some(value)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Consumes the next byte when `pred` accepts it.
    fn eat(&mut self, pred: impl Fn(u8) -> bool) -> Option<u8> {
        let b = self.peek().filter(|&b| pred(b))?;
        self.i += 1;
        Some(b)
    }

    fn ws(&mut self) {
        while self.eat(|b| b.is_ascii_whitespace() && b != 0x0C).is_some() {}
    }

    fn word(&mut self, word: &str, value: Value) -> Option<Value> {
        self.s.get(self.i..)?.starts_with(word).then(|| {
            self.i += word.len();
            value
        })
    }

    /// Consumes a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.eat(|b| b.is_ascii_digit()).is_some() {}
        self.i - start
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        self.ws();
        match self.peek()? {
            b'{' | b'[' if depth >= MAX_DEPTH => None,
            b'{' => {
                let mut members = Vec::new();
                self.items(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.eat(|b| b == b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Some(())
                })?;
                Some(Value::Object(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Some(())
                })?;
                Some(Value::Array(items))
            }
            b'"' => self.string().map(Value::String),
            b't' => self.word("true", Value::Bool(true)),
            b'f' => self.word("false", Value::Bool(false)),
            b'n' => self.word("null", Value::Null),
            _ => self.number(),
        }
    }

    /// The comma-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.i += 1;
        self.ws();
        if self.eat(|b| b == close).is_some() {
            return Some(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(|b| b == close).is_some() {
                return Some(());
            }
            self.eat(|b| b == b',')?;
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Option<Value> {
        let start = self.i;
        self.eat(|b| b == b'-');
        if self.eat(|b| b == b'0').is_none() && self.digits() == 0 {
            return None;
        }
        if self.eat(|b| b == b'.').is_some() && self.digits() == 0 {
            return None;
        }
        if self.eat(|b| b == b'e' || b == b'E').is_some() {
            self.eat(|b| b == b'+' || b == b'-');
            if self.digits() == 0 {
                return None;
            }
        }
        Some(Value::Number(self.s.get(start..self.i)?.to_owned()))
    }

    fn string(&mut self) -> Option<String> {
        self.eat(|b| b == b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go; those are ASCII, so the run ends on a char
            // boundary.
            let start = self.i;
            while self.eat(|b| b != b'"' && b != b'\\' && b >= 0x20).is_some() {}
            out.push_str(self.s.get(start..self.i)?);
            let c = match self.eat(|_| true)? {
                b'"' => return Some(out),
                b'\\' => match self.eat(|_| true)? {
                    b'u' => {
                        let hex = self.s.get(self.i..self.i.checked_add(4)?)?;
                        self.i += 4;
                        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                            return None;
                        }
                        char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                    }
                    b => match b {
                        b'"' | b'\\' | b'/' => char::from(b),
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        _ => return None,
                    },
                },
                _ => return None,
            };
            out.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_every_field_type_like_format() {
        let inner = object().val("n", 1u64).finish();
        let json = object()
            .val("u", 42u64)
            .val("f", 4000.5)
            .val("whole", 2.0)
            .fixed("one", 12.25, 1)
            .fixed("zero", -1234.5, 0)
            .fixed("four", 0.1, 4)
            .str("s", "SF8CR4")
            .val("b", true)
            .raw("o", &inner)
            .raw("a", &array([1u64, 2, 3].iter().map(u64::to_string)))
            .raw("e", &array(Vec::<String>::new()))
            .finish();
        assert_eq!(
            json,
            format!(
                "{{\"u\":42,\"f\":4000.5,\"whole\":2,\"one\":{:.1},\"zero\":{:.0},\
                 \"four\":0.1000,\"s\":\"SF8CR4\",\"b\":true,\"o\":{{\"n\":1}},\
                 \"a\":[1,2,3],\"e\":[]}}",
                12.25, -1234.5
            )
        );
        assert_eq!(object().finish(), "{}");
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_control_characters() {
        let nasty = "say \"hi\" C:\\dir\nnext\r\ttab\u{1}\u{1f}é";
        let json = object().str("k\"ey", nasty).finish();
        assert_eq!(
            json,
            "{\"k\\\"ey\":\"say \\\"hi\\\" C:\\\\dir\\nnext\\r\\ttab\\u0001\\u001fé\"}"
        );
        let back = parse(&json).expect("escaped output parses");
        assert_eq!(back.get("k\"ey").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn reader_reads_flat_and_nested_members() {
        // A daemon ack line: flat unsigned members, absent keys are None.
        let ack = parse(r#"{"type":"ack","stream":7,"seq":4123}"#).expect("ack");
        assert_eq!(ack.get("stream").and_then(Value::as_u64), Some(7));
        assert_eq!(ack.get("seq").and_then(Value::as_u64), Some(4123));
        assert_eq!(ack.get("nonce"), None);
        assert_eq!(ack.get("type").and_then(Value::as_str), Some("ack"));
        // A resumed line: an array of cursor objects, empty or not.
        let resumed = parse(concat!(
            "{\"type\":\"resumed\",\"session\":3,\"streams\":[",
            "{\"stream\":0,\"next_seq\":12,\"uplinked\":2},",
            "{\"stream\":9,\"next_seq\":0,\"uplinked\":0}]}"
        ))
        .expect("resumed");
        let streams = resumed
            .get("streams")
            .and_then(Value::as_array)
            .expect("array");
        let cursors: Vec<(u64, u64)> = streams
            .iter()
            .filter_map(|s| Some((s.get("stream")?.as_u64()?, s.get("next_seq")?.as_u64()?)))
            .collect();
        assert_eq!(cursors, vec![(0, 12), (9, 0)]);
        let empty = parse("{\"type\":\"resumed\",\"session\":1,\"streams\":[]}").expect("empty");
        assert_eq!(
            empty.get("streams").and_then(Value::as_array),
            Some(&[][..])
        );
        // Numbers keep their text: exact u64s, floats, negative values.
        let n = parse(" {\"big\":18446744073709551615,\"f\":-1.5e3,\"z\":0} ").expect("numbers");
        assert_eq!(n.get("big").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(n.get("f").and_then(Value::as_f64), Some(-1500.0));
        assert_eq!(n.get("f").and_then(Value::as_u64), None);
        assert_eq!(n.get("z").and_then(Value::as_u64), Some(0));
        let lit = parse(" [ true , false,null,\"\\u00e9\\/\\n\"]\n").expect("literals");
        assert_eq!(
            lit,
            Value::Array(vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::String("é/\n".into()),
            ])
        );
    }

    #[test]
    fn reader_rejects_malformed_input() {
        let deep_ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_some());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let cases = [
            "",
            "   ",
            "{",
            "{\"type\":\"ack\",\"stream\":7",
            "{\"type\":\"ack\"",
            "{\"type\":",
            "{\"type\"}",
            "{\"a\":1,}",
            "[1,2",
            "[1,]",
            "\"unterminated",
            "{\"type\":\"ack\"} trailing",
            "{\"type\":\"ack\"}{}",
            "{\"a\":1}]",
            "{\"s\":\"bad \\x escape\"}",
            "{\"s\":\"short \\u12\"}",
            "{\"s\":\"sign \\u+123\"}",
            "{\"s\":\"lone \\ud800 surrogate\"}",
            "{\"s\":\"pair \\ud83d\\ude00\"}",
            "{\"s\":\"bad \\é escape\"}",
            "{\"a\":1}\u{c}",
            "{\"s\":\"lone \\udc00 low\"}",
            "{\"s\":\"raw\nnewline\"}",
            "{a:1}",
            "{\"n\":01}",
            "{\"n\":1.}",
            "{\"n\":.5}",
            "{\"n\":1e}",
            "{\"n\":-}",
            "{\"n\":+1}",
            "{\"n\":NaN}",
            "{\"n\":inf}",
            "tru",
            "nul",
            too_deep.as_str(),
        ];
        for bad in cases {
            assert_eq!(parse(bad), None, "accepted {bad:?}");
        }
    }
}
