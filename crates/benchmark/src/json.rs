//! A minimal JSON writer (the tree has no `serde_json`; every artifact of the
//! workspace is hand-rendered the same way).

/// Renders `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a measured value with all its digits. JSON has no infinity or
/// NaN: an unbounded ratio (a balance factor with an idle worker) is clamped
/// to a large finite number, NaN becomes 0.
pub fn number(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "1e18" } else { "-1e18" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Renders `{"k": v, …}` from already-rendered values, in the given order.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders `[v, …]` from already-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_stay_valid_json() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::INFINITY), "1e18");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let inner = object(&[("value", number(2.5)), ("unit", string("ms"))]);
        let outer = object(&[("m", inner), ("xs", array(&[number(1.0), number(2.0)]))]);
        assert_eq!(
            outer,
            r#"{"m": {"value": 2.5, "unit": "ms"}, "xs": [1, 2]}"#
        );
    }
}
