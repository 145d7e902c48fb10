//! Offline shim for `serde_json`.
//!
//! Serializes the serde shim's [`Value`] tree to JSON text (compact and
//! pretty) and parses JSON text back into it. Matches serde_json's visible
//! conventions: object keys in struct-field order, non-finite floats become
//! `null`, integers print without a decimal point, pretty output indents by
//! two spaces.

#![forbid(unsafe_code)]

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error { msg: e.to_string() }
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), Some(2), 0);
    Ok(out)
}

/// Serialize `value` to a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Deserialize a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Writer. Everything is written straight into the output buffer: no
// per-number or per-string temporaries.
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => write_display(out, n),
        Value::U64(n) => write_display(out, n),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_display(out: &mut String, x: impl std::fmt::Display) {
    use std::fmt::Write;
    // `fmt::Write` for `String` never fails.
    let _ = write!(out, "{x}");
}

/// Non-finite floats become `null`. Integral floats below 1e15 print with
/// a trailing `.0`, as serde_json does (`-0.0` keeps its sign); there the
/// integer part is exact in an `i64`. Everything else uses `Display`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        if x == 0.0 && x.is_sign_negative() {
            out.push('-');
        }
        write_display(out, x as i64);
        out.push_str(".0");
    } else {
        write_display(out, x);
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Quote and escape `s`, copying each run of bytes that needs no escape
/// in one piece. Every escaped byte is ASCII, so the runs split `s` on
/// char boundaries.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

/// Deepest nesting of arrays and objects the parser accepts, as upstream
/// serde_json: deeper input is an error, not a stack overflow.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser { src: s, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error { msg: format!("{msg} at byte {}", self.pos) }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse a container one level deeper, refusing input nested deeper
    /// than [`RECURSION_LIMIT`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Advance past bytes that are neither `"` nor `\`, returning the run
    /// as text. It ends at an ASCII byte (or the end), so it is a valid
    /// slice of the input.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'"' || c == b'\\' {
                break;
            }
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            // No escapes: one copy of the run.
            self.pos += 1;
            return Ok(run.to_owned());
        }
        let mut s = run.to_owned();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
            s.push_str(self.plain_run());
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII bytes were consumed, so the slice is on char boundaries.
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_value() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("gpu-0\noops\"q\"".into())),
            ("count".into(), Value::U64(3)),
            ("util".into(), Value::F64(0.625)),
            ("whole".into(), Value::F64(2.0)),
            ("neg".into(), Value::I64(-7)),
            ("flags".into(), Value::Array(vec![Value::Bool(true), Value::Null])),
            ("empty".into(), Value::Object(vec![])),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        // U64/F64 survive textually: 2.0 re-parses as F64, 3 as U64.
        assert_eq!(to_string(&back).unwrap(), text);
        assert!(text.contains("\"util\":0.625"));
        assert!(text.contains("\"whole\":2.0"));
        assert!(text.contains("\\n"));
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::Object(vec![("a".into(), Value::Array(vec![Value::U64(1)]))]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(text, "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let text = to_string(&Value::F64(f64::NAN)).unwrap();
        assert_eq!(text, "null");
    }

    /// Golden bytes of the writer: every branch of number, string and
    /// container formatting, pinned so a faster writer is shown to keep
    /// them.
    #[test]
    fn writer_goldens_for_floats() {
        let f = |x: f64| to_string(&Value::F64(x)).unwrap();
        assert_eq!(f(0.0), "0.0");
        assert_eq!(f(-0.0), "-0.0");
        assert_eq!(f(-3.0), "-3.0");
        assert_eq!(f(0.1), "0.1");
        assert_eq!(f(-2.5e-3), "-0.0025");
        assert_eq!(f(1e15 - 1.0), "999999999999999.0");
        assert_eq!(f(-(1e15 - 1.0)), "-999999999999999.0");
        assert_eq!(f(1e15), "1000000000000000");
        assert_eq!(f(-1e15), "-1000000000000000");
        assert_eq!(f(5e-324), format!("0.{}5", "0".repeat(323)));
        assert_eq!(f(f64::MAX), format!("17976931348623157{}", "0".repeat(292)));
        assert_eq!(f(f64::INFINITY), "null");
        assert_eq!(f(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn writer_goldens_for_integers() {
        assert_eq!(to_string(&Value::I64(i64::MIN)).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&Value::I64(i64::MAX)).unwrap(), "9223372036854775807");
        assert_eq!(to_string(&Value::I64(-1)).unwrap(), "-1");
        assert_eq!(to_string(&Value::U64(u64::MAX)).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&Value::U64(0)).unwrap(), "0");
        assert_eq!(to_string(&u8::MAX).unwrap(), "255");
        assert_eq!(to_string(&i32::MIN).unwrap(), "-2147483648");
    }

    #[test]
    fn writer_goldens_for_strings() {
        let s = |x: &str| to_string(&Value::Str(x.to_string())).unwrap();
        assert_eq!(s(""), r#""""#);
        assert_eq!(s("plain"), r#""plain""#);
        assert_eq!(s(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(s(r"C:\dir\"), r#""C:\\dir\\""#);
        assert_eq!(s("a\nb\rc\td"), r#""a\nb\rc\td""#);
        assert_eq!(s("\u{0}\u{1}\u{8}\u{c}\u{1f}"), r#""\u0000\u0001\u0008\u000c\u001f""#);
        assert_eq!(s("\u{7f} /"), "\"\u{7f} /\"");
        assert_eq!(s("gpu-ä漢🚀\"x"), "\"gpu-ä漢🚀\\\"x\"");
        // Keys are escaped the same way.
        let obj = Value::Object(vec![("k\"\n".into(), Value::Null)]);
        assert_eq!(to_string(&obj).unwrap(), r#"{"k\"\n":null}"#);
    }

    #[test]
    fn writer_goldens_for_containers() {
        assert_eq!(to_string(&Value::Array(vec![])).unwrap(), "[]");
        assert_eq!(to_string(&Value::Object(vec![])).unwrap(), "{}");
        assert_eq!(to_string_pretty(&Value::Array(vec![])).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Object(vec![])).unwrap(), "{}");
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::U64(1), Value::F64(2.0), Value::Null])),
            ("b".into(), Value::Object(vec![])),
            ("c".into(), Value::Array(vec![])),
            ("d".into(), Value::Object(vec![("e".into(), Value::Bool(false))])),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":[1,2.0,null],"b":{},"c":[],"d":{"e":false}}"#);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    2.0,\n    null\n  ],\n  \"b\": {},\n  \"c\": [],\n  \
             \"d\": {\n    \"e\": false\n  }\n}"
        );
        // A borrowed tree and an owned one write the same bytes.
        assert_eq!(to_string(&&v).unwrap(), to_string(&v).unwrap());
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT)).is_ok());
        let err = from_str::<Value>(&nested(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(100_000)).is_err());
        // Depth counts open containers, not containers seen: many shallow
        // siblings are fine.
        let wide = format!("[{}]", vec![nested(RECURSION_LIMIT - 1); 300].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
