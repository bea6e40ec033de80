//! Markdown rendering of the sensitivity report that `chain2l sensitivity`
//! prints.

use crate::report::fmt_f64;
use chain2l_core::sensitivity::SensitivityReport;

/// Renders a sensitivity report as a Markdown table sorted by influence.
pub fn sensitivity_to_markdown(report: &SensitivityReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### Parameter sensitivity ({}, ±{} % perturbation)\n\n",
        report.algorithm.label(),
        fmt_f64(report.relative_step * 100.0, 1)
    ));
    out.push_str("| parameter | nominal value | elasticity |\n|---|---|---|\n");
    for entry in report.ranked() {
        out.push_str(&format!(
            "| {} | {:.4e} | {} |\n",
            entry.parameter.label(),
            entry.nominal_value,
            fmt_f64(entry.elasticity, 4)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_core::sensitivity::analyze;
    use chain2l_core::Algorithm;
    use chain2l_model::platform::scr;
    use chain2l_model::{Scenario, WeightPattern};

    #[test]
    fn sensitivity_markdown_lists_all_parameters() {
        let scenario =
            Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 10, 25_000.0).unwrap();
        let report = analyze(&scenario, Algorithm::TwoLevel, 0.05);
        let md = sensitivity_to_markdown(&report);
        for label in ["lambda_f", "lambda_s", "C_D", "C_M", "V*", "recall"] {
            assert!(md.contains(label), "missing {label} in\n{md}");
        }
        assert!(md.lines().count() >= 10);
    }
}
