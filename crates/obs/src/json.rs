//! A minimal JSON document model and pretty-printer — just enough to
//! emit profile documents without any external dependency. Nothing in
//! the workspace reads JSON back: CI checks the written documents'
//! syntax with `python3 -m json.tool`.
//!
//! Objects preserve insertion order (they are `Vec<(String, Json)>`,
//! not maps), so a document renders its fields in the order they were
//! built. Non-finite numbers serialise as `null` (JSON has no
//! NaN/Infinity).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// Any number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for `Json::Str`.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialise with newlines and `indent`-space nesting.
    pub fn pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, indent, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize, depth: usize) {
        let pad = " ".repeat(indent * depth);
        let pad_in = " ".repeat(indent * (depth + 1));
        match self {
            Json::Null => out.push_str("null"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad_in);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_document() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("kgoa-obs/v2")),
            ("n".into(), Json::Num(42.0)),
            ("pi".into(), Json::Num(3.5)),
            ("neg".into(), Json::Num(-7.0)),
            ("none".into(), Json::Null),
            ("items".into(), Json::Arr(vec![Json::Num(1.0), Json::str("a\n\"b\"\t\u{1}")])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let expected = r#"{
  "schema": "kgoa-obs/v2",
  "n": 42,
  "pi": 3.5,
  "neg": -7,
  "none": null,
  "items": [
    1,
    "a\n\"b\"\t\u0001"
  ],
  "empty_arr": [],
  "empty_obj": {}
}
"#;
        assert_eq!(doc.pretty(2), expected);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(1e9).pretty(2), "1000000000\n");
        assert_eq!(Json::Num(0.25).pretty(2), "0.25\n");
        assert_eq!(Json::Num(f64::NAN).pretty(2), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).pretty(2), "null\n");
    }
}
