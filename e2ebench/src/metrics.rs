//! Named metrics with units, rendered as the benchmark's JSON output.

use std::fmt::Write as _;

/// An ordered set of named, unit-carrying values.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a repeated name: both are bugs
    /// in the benchmark, and the output must stay valid JSON.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Every entry, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// The entries as a JSON object of `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            );
        }
        out.push('}');
        out
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_values_with_all_their_digits() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789, "ms");
        m.put("count", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    fn quotes_escape_json_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
