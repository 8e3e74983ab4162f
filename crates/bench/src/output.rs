//! Output helpers: CSV artifacts under `results/` and ASCII tables.

use std::fs;
use std::path::PathBuf;

/// The directory experiment artifacts are written to (`results/` under
/// the workspace root, overridable with `DYNAPLACE_RESULTS`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DYNAPLACE_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // The bench crate lives at crates/bench; the workspace root
            // is two levels up from its manifest.
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(|p| p.parent())
                .map(|p| p.join("results"))
                .unwrap_or_else(|| PathBuf::from("results"))
        });
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes rows as CSV under `results/<name>.csv` and returns the path.
///
/// # Panics
///
/// Panics on I/O errors (harness binaries want loud failures).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write csv");
    path
}

/// Renders a simple aligned ASCII table.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a ratio as a percentage string.
pub fn format_pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = ascii_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(format_pct(0.985), "98.5%");
        assert_eq!(format_pct(1.0), "100.0%");
    }
}

/// Renders one or more `(x, y)` series as a fixed-size ASCII plot.
/// Each series draws with its own glyph; later series overdraw earlier
/// ones where they collide. Returns an empty string when no series has
/// points.
pub fn ascii_plot(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if points.is_empty() || width < 8 || height < 3 {
        return String::new();
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if x_max - x_min < 1e-12 {
        x_max = x_min + 1.0;
    }
    if y_max - y_min < 1e-12 {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for &(x, y) in *pts {
            let col = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let row = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row][col.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>10.2} |")
        } else if i == height - 1 {
            format!("{y_min:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>10}  {:<width$.0}{:>0.0}\n",
        "",
        x_min,
        x_max,
        width = width - 4
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", glyphs[i % glyphs.len()]))
        .collect();
    out.push_str(&format!("{:>12}{}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod plot_tests {
    use super::*;

    #[test]
    fn plot_renders_bounds_and_legend() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64, (i as f64 / 8.0).sin()))
            .collect();
        let plot = ascii_plot(&[("wave", &pts)], 60, 12);
        assert!(plot.contains('*'));
        assert!(plot.contains("wave"));
        assert!(plot.lines().count() >= 14);
    }

    #[test]
    fn empty_series_is_empty_plot() {
        assert_eq!(ascii_plot(&[("nothing", &[])], 60, 12), "");
    }

    #[test]
    fn two_series_use_distinct_glyphs() {
        let a: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 1.0)).collect();
        let b: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        let plot = ascii_plot(&[("top", &a), ("bottom", &b)], 40, 8);
        assert!(plot.contains('*') && plot.contains('o'));
    }
}
