//! Machine-readable experiment output.
//!
//! The figure harnesses print human-readable tables *and* emit JSON
//! lines so `EXPERIMENTS.md` can be regenerated from artifacts.

use serde::Serialize;

/// Serializes rows as JSON lines (one object per line).
///
/// # Panics
///
/// Panics if a row fails to serialize (all row types are plain data).
pub fn to_json_lines<T: Serialize>(rows: &[T]) -> String {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("rows are plain serializable data"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        name: &'static str,
        value: f64,
    }

    #[test]
    fn json_lines_one_per_row() {
        let rows = vec![
            Row {
                name: "a",
                value: 1.0,
            },
            Row {
                name: "b",
                value: 2.0,
            },
        ];
        let s = to_json_lines(&rows);
        assert_eq!(s.lines().count(), 2);
        assert!(s.lines().next().unwrap().contains("\"a\""));
    }
}
