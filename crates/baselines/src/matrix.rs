//! The requirements matrix (paper §1's checklist × §2's related work),
//! rendered from the system profiles so the REQS experiment regenerates
//! the comparison from code.

use crate::systems::{all_systems, SystemProfile};

/// One rendered matrix row.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// System name and venue.
    pub system: String,
    /// One flag per requirement.
    pub met: [bool; 4],
    /// Tag clock power (µW) for the power column.
    pub clock_power_uw: f64,
    /// Published throughput, for context (bps).
    pub throughput_bps: (f64, f64),
}

/// Build the matrix for all systems.
pub fn build_matrix() -> Vec<MatrixRow> {
    all_systems().iter().map(row_for).collect()
}

fn row_for(s: &SystemProfile) -> MatrixRow {
    MatrixRow {
        system: format!("{} ({})", s.name, s.venue),
        met: s.requirements(),
        clock_power_uw: s.oscillator.power_uw(),
        throughput_bps: s.throughput_bps,
    }
}

/// Render the matrix as an aligned text table (what the REQS binary
/// prints).
pub fn render_matrix() -> String {
    let rows = build_matrix();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:^10} {:^10} {:^10} {:^10} {:>12} {:>18}\n",
        "System", "WiFi", "Encrypt", "Low-pwr", "No-intf", "clock (uW)", "throughput"
    ));
    for r in &rows {
        let mark = |b: bool| if b { "yes" } else { "-" };
        let (lo, hi) = r.throughput_bps;
        out.push_str(&format!(
            "{:<28} {:^10} {:^10} {:^10} {:^10} {:>12.1} {:>8.0}-{:.0} Kbps\n",
            r.system,
            mark(r.met[0]),
            mark(r.met[1]),
            mark(r.met[2]),
            mark(r.met[3]),
            r.clock_power_uw,
            lo / 1e3,
            hi / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_all_systems() {
        let rows = build_matrix();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().any(|r| r.system.starts_with("WiTAG")));
        assert!(rows.iter().any(|r| r.system.starts_with("HitchHike")));
    }

    #[test]
    fn rendered_table_is_complete() {
        let table = render_matrix();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 8, "header + 7 systems");
        for name in ["WiTAG", "HitchHike", "FreeRider", "MOXcatter", "BackFi"] {
            assert!(table.contains(name), "missing {name}");
        }
    }

    #[test]
    fn witag_row_is_all_yes() {
        let rows = build_matrix();
        let witag = rows.iter().find(|r| r.system.starts_with("WiTAG")).unwrap();
        assert_eq!(witag.met, [true; 4]);
    }
}
