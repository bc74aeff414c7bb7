//! Plain-text table formatting for experiment output.

/// Format a throughput value (operations per second) as Mops with two
/// decimals, the unit the paper uses.
pub fn fmt_mops(ops_per_sec: f64) -> String {
    format!("{:.2}", ops_per_sec / 1e6)
}

/// Format a latency in nanoseconds as microseconds with one decimal.
pub fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Print an aligned table with a header row.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_mops(31_800_000.0), "31.80");
        assert_eq!(fmt_mops(340_000.0), "0.34");
        assert_eq!(fmt_us(19_890_000), "19890.0");
        assert_eq!(fmt_us(4_900), "4.9");
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
