//! Plain-text rendering of tables and figure series.
//!
//! The `figures` and `experiments` binaries print every reproduced table and figure
//! through these helpers so the output format is uniform and easy to diff across runs.

use xmap_eval::SweepSeries;

/// Renders a fixed-width table: `headers` followed by one row per entry of `rows`.
/// Column widths adapt to the longest cell.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(n_cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(c).unwrap_or(&empty);
            line.push_str(&format!(" {cell:<w$} |", w = w));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Renders a set of sweep series as a table with the x value in the first column and one
/// column per series — the textual equivalent of one figure panel.
pub fn render_series_table(x_label: &str, series: &[SweepSeries], precision: usize) -> String {
    // collect the union of x values in first-seen order
    let mut xs: Vec<f64> = Vec::new();
    for s in series {
        for p in &s.points {
            if !xs.iter().any(|&x| (x - p.x).abs() < 1e-12) {
                xs.push(p.x);
            }
        }
    }
    let mut headers: Vec<&str> = vec![x_label];
    let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
    headers.extend(labels);

    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|&x| {
            let mut row = vec![format!("{x}")];
            for s in series {
                let cell = s
                    .points
                    .iter()
                    .find(|p| (p.x - x).abs() < 1e-12)
                    .map(|p| format!("{:.*}", precision, p.y))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            row
        })
        .collect();
    render_table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_headers_and_rows() {
        let out = render_table(
            &["genre", "count", "domain"],
            &[
                vec!["Drama".into(), "13344".into(), "D1".into()],
                vec!["Comedy".into(), "8374".into(), "D2".into()],
            ],
        );
        assert!(out.contains("genre"));
        assert!(out.contains("Drama"));
        assert!(out.contains("D2"));
        // 1 header + 1 separator + 2 data rows
        assert_eq!(out.lines().count(), 4);
        // all lines have the same width
        let widths: Vec<usize> = out.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn missing_cells_render_as_empty() {
        let out = render_table(&["a", "b"], &[vec!["1".into()]]);
        assert!(out.lines().count() == 3);
    }

    #[test]
    fn series_table_aligns_on_x_values() {
        let mut a = SweepSeries::new("A");
        a.push(10.0, 0.5);
        a.push(20.0, 0.4);
        let mut b = SweepSeries::new("B");
        b.push(10.0, 0.6);
        let out = render_series_table("k", &[a, b], 3);
        assert!(out.contains("k"));
        assert!(out.contains("A"));
        assert!(out.contains("B"));
        assert!(out.contains("0.500"));
        assert!(out.contains("0.400"));
        // B has no point at x=20 -> dash
        assert!(out.contains('-'));
    }

    #[test]
    fn empty_series_render_header_only() {
        let out = render_series_table("x", &[SweepSeries::new("empty")], 2);
        assert!(out.contains("empty"));
        assert_eq!(out.lines().count(), 2);
    }
}
