//! The JSON writer of `VERDICTS.json`: a value over what the file holds
//! (non-negative integers, booleans, escaped strings, arrays and ordered
//! objects — no floats) and one pretty-printer. A container whose members
//! are scalars or empty containers is written on one line; any other puts
//! each member on its own line, indented two spaces per level.

use alter_trace::jsonl::escape_into;

#[derive(Clone)]
pub enum Json {
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// An object literal, `json!({"key": value, ...})`: keys are string
/// literals, each value is converted with `Json::from`.
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Json::Obj(vec![$(($key.to_owned(), $crate::json::Json::from($value))),*])
    };
}
pub(crate) use json;

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// The pretty-printed document, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out + "\n"
    }

    fn write(&self, out: &mut String, indent: usize) {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = if let Json::Arr(_) = self {
            ('[', ']')
        } else {
            ('{', '}')
        };
        let multiline = members.iter().any(|(_, v)| v.is_nested());
        let newline = |out: &mut String, indent| {
            if multiline {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
            }
        };
        out.push(open);
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            newline(out, indent + 2);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        newline(out, indent);
        out.push(close);
    }

    /// A container with members — what forces its parent onto many lines.
    fn is_nested(&self) -> bool {
        matches!(self, Json::Arr(a) if !a.is_empty())
            || matches!(self, Json::Obj(o) if !o.is_empty())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_exact_strings() {
        let nested = json!({
            "geometry": json!({"workers": 4u64, "chunk": 16u64}),
            "workloads": Json::Arr(vec![json!({
                "name": "FFT",
                "lint": json!({}),
                "skips": Json::Arr(vec!["a".into(), "b".into()]),
            })]),
            "probes": json!({"run": 3u64, "skips": Json::Arr(vec![])}),
        });
        let layout = r#"{
  "geometry": {"workers": 4, "chunk": 16},
  "workloads": [
    {
      "name": "FFT",
      "lint": {},
      "skips": ["a", "b"]
    }
  ],
  "probes": {"run": 3, "skips": []}
}"#;
        for (value, written) in [
            (Json::from("say \"hi\""), r#""say \"hi\"""#),
            ("a\\b".into(), r#""a\\b""#),
            ("two\nlines".into(), r#""two\nlines""#),
            ("\u{1} ≥ 5×".into(), r#""\u0001 ≥ 5×""#),
            (json!({"info:\"q\"": false}), r#"{"info:\"q\"": false}"#),
            (u64::MAX.into(), "18446744073709551615"),
            (Json::Arr(vec![]), "[]"),
            (json!({}), "{}"),
            (nested, layout),
        ] {
            assert_eq!(value.pretty(), format!("{written}\n"));
        }
    }
}
