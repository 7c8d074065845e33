//! Hand-rolled JSON writer helpers and a minimal parser.
//!
//! The sink writes JSON by hand (same style as `bench_gc`); the parser
//! exists so tests and the CLI trace report can read event logs back
//! without an external dependency. It covers the full JSON grammar except
//! `\u` surrogate pairs outside the BMP are passed through unpaired.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `buf` as a quoted, escaped JSON string.
pub fn write_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// 2^53: the largest integer up to which every integer is an exact `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let one hostile line
/// overflow the stack; deeper input is an error instead.
pub const MAX_DEPTH: usize = 512;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as f64; integers up to 2^53 are exact).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (key order not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as u64, if this is a non-negative integer no
    /// larger than 2^53 (the range a `Num` holds exactly). Fractional and
    /// larger values are `None`, never rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Renders a [`Value`] back to its canonical JSON text: no whitespace,
/// object keys in sorted (`BTreeMap`) order, numbers via Rust's shortest
/// round-trip float formatting (integers up to 2^53 print without a
/// fractional part). Because the form is canonical, `render` is a fixed
/// point under re-parsing: `render(&parse(&render(v))?)` equals
/// `render(v)` byte for byte (property-tested over span trees in
/// `tests/trace_json_roundtrip.rs`).
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(&mut out, v);
    out
}

fn render_into(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                render_into(out, item);
            }
            out.push('}');
        }
    }
}

/// Parses one JSON document; trailing non-whitespace and nesting deeper
/// than [`MAX_DEPTH`] are errors.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Validates that every non-empty line of `log` parses as a JSON object
/// containing all of `required` keys. Returns the number of lines checked.
pub fn validate_jsonl(log: &str, required: &[&str]) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in log.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let obj = v
            .as_obj()
            .ok_or_else(|| format!("line {}: not an object", i + 1))?;
        for key in required {
            if !obj.contains_key(*key) {
                return Err(format!("line {}: missing key `{key}`", i + 1));
            }
        }
        n += 1;
    }
    Ok(n)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // The slice between escapes is valid UTF-8 because the input is &str.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_escaped_string() {
        let mut buf = String::new();
        write_str(&mut buf, "a\"b\\c\nd\te\u{0001}");
        let v = parse(&buf).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nd\te\u{0001}");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"ev":"gc_cycle","t":42,"neg":-3.5,"ok":true,"none":null,"xs":[1,2,3],"o":{"k":"v"}}"#,
        )
        .unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("gc_cycle"));
        assert_eq!(v.get("t").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-3.5));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none").unwrap(), &Value::Null);
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("o").unwrap().get("k").and_then(Value::as_str),
            Some("v")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escaped_quotes_and_backslashes() {
        // `"\\\""` is the two-character string `\"`; follow with an escaped
        // backslash right before the closing quote — the classic
        // parser-confuser, since a naive scanner treats `\\"` as an escaped
        // quote and runs past the end of the string.
        let v = parse(r#"{"a":"\\\"","b":"tail\\"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("\\\""));
        assert_eq!(v.get("b").unwrap().as_str(), Some("tail\\"));
        // Round-trip through the writer.
        let mut buf = String::new();
        write_str(&mut buf, "\\\"\\\\\"");
        assert_eq!(parse(&buf).unwrap().as_str(), Some("\\\"\\\\\""));
        // \u escapes and forward slashes.
        let v = parse(r#""A\/é""#).unwrap();
        assert_eq!(v.as_str(), Some("A/é"));
        // An escape cut off by end-of-input must error, not panic.
        assert!(parse(r#""dangling\"#).is_err());
        assert!(parse(r#""\u12"#).is_err());
        assert!(parse(r#""\q""#).is_err());
    }

    #[test]
    fn deeply_nested_arrays() {
        let depth = 300;
        let mut src = String::new();
        src.push_str(&"[".repeat(depth));
        src.push('7');
        src.push_str(&"]".repeat(depth));
        let mut v = parse(&src).unwrap();
        for _ in 0..depth {
            v = v.as_arr().unwrap()[0].clone();
        }
        assert_eq!(v.as_f64(), Some(7.0));
        // Unbalanced nesting is rejected.
        assert!(parse(&"[".repeat(depth)).is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = parse(&"{\"a\":".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        // Exactly MAX_DEPTH levels still parse.
        let src = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&src).is_ok());
        let src = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&src).is_err());
    }

    #[test]
    fn numbers_at_integer_and_float_boundaries() {
        // Integers are exact up to 2^53 (Num holds an f64).
        let exact = parse("9007199254740992").unwrap(); // 2^53
        assert_eq!(exact.as_u64(), Some(1 << 53));
        // i64::MAX / i64::MIN parse (rounded to the nearest representable
        // f64, which is the documented contract of `Value::Num`).
        let max = parse("9223372036854775807").unwrap();
        assert_eq!(max.as_f64(), Some(9.223372036854776e18));
        let min = parse("-9223372036854775808").unwrap();
        assert_eq!(min.as_f64(), Some(-9.223372036854776e18));
        // f64::MAX and the smallest subnormal survive exactly.
        let fmax = parse("1.7976931348623157e308").unwrap();
        assert_eq!(fmax.as_f64(), Some(f64::MAX));
        let tiny = parse("5e-324").unwrap();
        assert_eq!(tiny.as_f64(), Some(f64::from_bits(1)));
        // Beyond-range magnitudes follow Rust's f64 parsing: infinite.
        assert_eq!(parse("1e400").unwrap().as_f64(), Some(f64::INFINITY));
        assert_eq!(parse("-1e400").unwrap().as_f64(), Some(f64::NEG_INFINITY));
        // Negative, fractional and inexact numbers are not u64s.
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None);
        assert_eq!(parse("1e400").unwrap().as_u64(), None);
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn rejects_trailing_garbage() {
        // Every value kind with trailing content after a complete document.
        for src in [
            "{\"a\":1}{\"b\":2}",
            "{\"a\":1} x",
            "[1,2] 3",
            "\"s\" \"t\"",
            "123abc",
            "truefalse",
            "null,",
        ] {
            let err = parse(src).expect_err(src);
            assert!(
                err.contains("trailing") || err.contains("bad number"),
                "{src}: {err}"
            );
        }
        // Leading/trailing whitespace alone is fine.
        assert!(parse("  {\"a\":1}\n\t").is_ok());
    }

    #[test]
    fn validate_jsonl_checks_required_keys() {
        let good = "{\"ev\":\"a\",\"t\":1}\n\n{\"ev\":\"b\",\"t\":2}\n";
        assert_eq!(validate_jsonl(good, &["ev", "t"]).unwrap(), 2);
        let bad = "{\"ev\":\"a\"}\n";
        assert!(validate_jsonl(bad, &["ev", "t"]).is_err());
        assert!(validate_jsonl("not json\n", &["ev"]).is_err());
    }
}
