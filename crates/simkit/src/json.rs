//! JSON output: one string escape, one number rule, and a pretty writer.
//!
//! Every JSON byte the workspace writes goes through this module: the
//! trace exports, `dyrs-node stat`, `bench-snapshot`, and `repro --json`.
//!
//! * Strings: `"` and `\` are backslash-escaped, a newline becomes `\n`,
//!   and every other character below 0x20 becomes `\u00XX`. Prometheus
//!   label values share this rule.
//! * Numbers: integers are written as they are; an `f64` is written as
//!   Rust's `Display` prints it (so a whole float is `3`, not `3.0`), or
//!   `null` if it is not finite.
//!
//! [`ToJson`] writes a value pretty-printed: two-space indent, one array
//! element or `"key": value` member per line, `[]`/`{}` when empty, and
//! tuples as arrays. A struct gets it from
//! [`json_fields!`](crate::json_fields). There is no reader.

use std::fmt::{self, Write as _};

/// `s` with JSON's string escapes applied, without surrounding quotes.
pub fn escape(s: &str) -> impl fmt::Display + '_ {
    Escaped(s)
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// `v` as a JSON number token: Rust's `Display`, or `null` if `v` is NaN
/// or infinite (which `Display` would print as `NaN`/`inf`, not JSON).
pub fn number(v: f64) -> impl fmt::Display {
    Number(v)
}

struct Number(f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A value that can write itself as pretty-printed JSON.
pub trait ToJson {
    /// Append this value to `out`; nested lines are indented `level + 1`
    /// steps of two spaces.
    fn write_json(&self, out: &mut String, level: usize);
}

/// `value` as pretty-printed JSON, without a trailing newline.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_array<'a>(
    out: &mut String,
    level: usize,
    items: impl IntoIterator<Item = &'a dyn ToJson>,
) {
    out.push('[');
    let mut empty = true;
    for item in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, level + 1);
        item.write_json(out, level + 1);
    }
    if !empty {
        newline(out, level);
    }
    out.push(']');
}

/// Write an object whose members are `fields`, in order. This is what
/// [`json_fields!`](crate::json_fields) expands to.
pub fn write_object(out: &mut String, level: usize, fields: &[(&str, &dyn ToJson)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, level + 1);
        let _ = write!(out, "\"{}\": ", escape(key));
        value.write_json(out, level + 1);
    }
    if !fields.is_empty() {
        newline(out, level);
    }
    out.push('}');
}

/// Implement [`ToJson`] for a struct as an object of the listed fields,
/// written in list order (keep it the declaration order). The list must
/// name every field: it is matched against the struct exhaustively, so a
/// field added later fails to compile until it is listed.
///
/// ```
/// struct Row {
///     name: String,
///     secs: f64,
/// }
/// simkit::json_fields!(Row: name, secs);
///
/// let row = Row { name: "dyrs".into(), secs: 2.0 };
/// let json = simkit::json::to_string_pretty(&row);
/// assert_eq!(json, "{\n  \"name\": \"dyrs\",\n  \"secs\": 2\n}");
/// ```
#[macro_export]
macro_rules! json_fields {
    ($ty:ident: $($field:ident),+ $(,)?) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, level: usize) {
                let $ty { $($field),+ } = self;
                $crate::json::write_object(
                    out,
                    level,
                    &[$((stringify!($field), $field as &dyn $crate::json::ToJson)),+],
                );
            }
        }
    };
}

macro_rules! display_to_json {
    ($($t:ty),+) => {
        $(impl ToJson for $t {
            fn write_json(&self, out: &mut String, _level: usize) {
                let _ = write!(out, "{self}");
            }
        })+
    };
}

display_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _level: usize) {
        let _ = write!(out, "{}", number(*self));
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _level: usize) {
        let _ = write!(out, "\"{}\"", escape(self));
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, level: usize) {
        self.as_str().write_json(out, level);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, level: usize) {
        match self {
            Some(v) => v.write_json(out, level),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, level: usize) {
        write_array(out, level, self.iter().map(|v| v as &dyn ToJson));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, level: usize) {
        self.as_slice().write_json(out, level);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String, level: usize) {
        write_array(out, level, [&self.0 as &dyn ToJson, &self.1]);
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn write_json(&self, out: &mut String, level: usize) {
        write_array(out, level, [&self.0 as &dyn ToJson, &self.1, &self.2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = escape("say \"hi\"\\\n\u{1}é").to_string();
        assert_eq!(s, "say \\\"hi\\\"\\\\\\n\\u0001é");
        assert_eq!(to_string_pretty("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn numbers_follow_display_and_non_finite_is_null() {
        assert_eq!(number(f64::NAN).to_string(), "null");
        assert_eq!(number(f64::INFINITY).to_string(), "null");
        assert_eq!(number(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(number(0.5).to_string(), "0.5");
        assert_eq!(number(3.0).to_string(), "3");
        assert_eq!(to_string_pretty(&u64::MAX), "18446744073709551615");
        assert_eq!(to_string_pretty(&f64::NAN), "null");
    }

    struct Point {
        label: String,
        at: (f64, u32),
    }
    crate::json_fields!(Point: label, at);

    struct Figure {
        name: String,
        points: Vec<Point>,
        best: Option<f64>,
        worst: Option<f64>,
        empty: Vec<u64>,
        ok: bool,
    }
    crate::json_fields!(Figure: name, points, best, worst, empty, ok);

    #[test]
    fn pretty_layout_nests_two_spaces_per_level() {
        let fig = Figure {
            name: "fig".into(),
            points: vec![
                Point {
                    label: "a".into(),
                    at: (0.25, 1),
                },
                Point {
                    label: "b".into(),
                    at: (1.0, 2),
                },
            ],
            best: Some(1.5),
            worst: None,
            empty: Vec::new(),
            ok: true,
        };
        let expected = r#"{
  "name": "fig",
  "points": [
    {
      "label": "a",
      "at": [
        0.25,
        1
      ]
    },
    {
      "label": "b",
      "at": [
        1,
        2
      ]
    }
  ],
  "best": 1.5,
  "worst": null,
  "empty": [],
  "ok": true
}"#;
        assert_eq!(to_string_pretty(&fig), expected);
    }
}
