//! Minimal JSON helpers shared by the JSONL sink, its round-trip tests, and
//! the `trace_check` CI validator. This is deliberately *not* a general JSON
//! library — just enough to write trace lines and to verify that what was
//! written parses back (objects, arrays, strings with the escapes we emit,
//! numbers, booleans, null).

use std::collections::BTreeMap;

/// Escape `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Returns `Err` with a position-annotated
/// message on malformed input or trailing garbage. Duplicate object keys
/// keep the first occurrence (trace lines serialize the envelope fields
/// before span attributes, which may legally reuse an envelope name).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (possibly multi-byte).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        // First occurrence wins on duplicate keys: trace lines put the
        // envelope fields (ts_ns/thread/kind/name) first, and a span
        // attribute reusing one of those names must not shadow them.
        let value = parse_value(b, pos)?;
        map.entry(key).or_insert(value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}
