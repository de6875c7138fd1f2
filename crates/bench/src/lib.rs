//! Shared harness utilities for the experiment binaries (E1–E12).
//!
//! Each `src/bin/exp_*.rs` binary regenerates one of the paper's
//! quantitative claims (the paper is a theory paper, so "tables and
//! figures" are theorem statements and lower-bound constructions — see
//! `EXPERIMENTS.md` at the workspace root for the index). The binaries
//! print fixed-width tables to stdout; everything is seeded and
//! deterministic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod trace;

use pga_graph::matching::maximal_matching;
use pga_graph::power::square;
use pga_graph::Graph;

/// A minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints its header row.
    pub fn new(headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let t = Table { headers, widths };
        t.print_header();
        t
    }

    fn print_header(&self) {
        let row: Vec<String> = self
            .headers
            .iter()
            .zip(&self.widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", row.join("  "));
        println!("{}", "-".repeat(row.join("  ").len()));
    }

    /// Prints one row of already-formatted cells.
    pub fn row(&self, cells: &[String]) {
        let row: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", row.join("  "));
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// A cheap lower bound on `MVC(G²)`: a maximal matching in the square.
/// Used to bound approximation ratios at sizes where the exact solver is
/// out of reach.
pub fn square_mvc_lower_bound(g: &Graph) -> usize {
    maximal_matching(&square(g)).len()
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// The [`RunConfig`](pga_congest::RunConfig) the experiment binaries
/// run under: one shard per available CPU (bit-identical to the
/// sequential engine, just faster).
pub fn exp_cfg() -> pga_congest::RunConfig {
    pga_congest::RunConfig::new().parallel_auto()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_graph::generators;

    #[test]
    fn lower_bound_below_optimum() {
        let g = generators::cycle(12);
        let lb = square_mvc_lower_bound(&g);
        let opt = pga_exact::vc::mvc_size(&square(&g));
        assert!(lb <= opt);
        assert!(lb >= opt / 2, "matching is a 2-approximation lower bound");
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.0 / 3.0), "0.333");
    }
}
