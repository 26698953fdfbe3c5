//! A minimal, deterministic JSON writer.
//!
//! Reports must serialize to *byte-identical* JSON across runs of the same
//! seed (the golden tests pin this), so the writer emits keys in exactly
//! the order the caller supplies them — no external serializer, no map
//! ordering surprises.

use std::fmt::Write as _;

/// A JSON value tree. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (every number a report carries is a counter or a
    /// millisecond instant).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `Json::Int` from any unsigned counter.
    pub fn uint(v: u64) -> Json {
        Json::Int(v as i64)
    }

    /// `Json::Null` for `None`, else the mapped value.
    pub fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
        v.map_or(Json::Null, f)
    }

    /// Serializes with `indent`-space pretty printing.
    pub fn to_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Compact serialization (`to_string` comes via `Display`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip_shapes() {
        let v = Json::obj(vec![
            ("name", Json::Str("s\"1\"".into())),
            ("n", Json::Int(200)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Array(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"s\"1\"","n":200,"ok":true,"none":null,"xs":[1,2]}"#
        );
        assert!(v.to_pretty(2).contains("\n  \"n\": 200"));
    }

    #[test]
    fn key_order_is_insertion_order() {
        let v = Json::obj(vec![("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn control_chars_escape() {
        let v = Json::Str("\u{1}x".into());
        assert_eq!(v.to_string(), "\"\\u0001x\"");
    }
}
