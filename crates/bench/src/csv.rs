//! CSV export of the Fig 7 / Fig 8 evaluation matrix, for external plotting.

use holoar_core::evaluation::EvaluationMatrix;

/// Renders the matrix as CSV with one row per (video, scheme) cell.
///
/// Columns: `video, scheme, frames, latency_ms, power_w, energy_mj,
/// planes, reuse_fraction`.
///
/// # Examples
///
/// ```
/// use holoar_bench::csv::matrix_to_csv;
/// use holoar_core::evaluation::evaluate_matrix;
/// use holoar_gpusim::Device;
///
/// let matrix = evaluate_matrix(&Device::xavier(), 5, 1);
/// let csv = matrix_to_csv(&matrix);
/// assert!(csv.lines().count() == 25); // header + 24 cells
/// ```
pub fn matrix_to_csv(matrix: &EvaluationMatrix) -> String {
    let mut out =
        String::from("video,scheme,frames,latency_ms,power_w,energy_mj,planes,reuse_fraction\n");
    for cell in &matrix.cells {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.4},{:.3},{:.2},{:.4}\n",
            cell.category.name(),
            cell.scheme.name(),
            cell.frames,
            cell.mean_latency * 1e3,
            cell.mean_power,
            cell.mean_energy * 1e3,
            cell.mean_planes,
            cell.reuse_fraction,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_core::evaluation::evaluate_matrix;
    use holoar_gpusim::Device;

    #[test]
    fn csv_has_header_and_all_cells() {
        let matrix = evaluate_matrix(&Device::xavier(), 4, 9);
        let csv = matrix_to_csv(&matrix);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 25);
        assert!(lines[0].starts_with("video,scheme"));
        assert!(lines[1].starts_with("bike,Baseline,4,"));
        // Every row has the full column count.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 8, "bad row: {line}");
        }
    }
}
