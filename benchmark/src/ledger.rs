//! The per-request layer ledger: where a networked fix's round trip goes.
//!
//! The client-measured mean round trip is split into the mean times of
//! the server-side layers on the blocking path, in path order. Whatever
//! the layers do not explain is `unattributed`. The ledger never
//! attributes more than the measured round trip: a layer whose mean would
//! overrun what is left is clipped, and the ledger says so.

/// One row of the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Layer name.
    pub layer: &'static str,
    /// Mean time the layer measured, milliseconds.
    pub measured_ms: f64,
    /// Share of the round trip attributed to it, milliseconds.
    pub attributed_ms: f64,
}

/// A round trip split into layers.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// Client-measured mean round trip, milliseconds.
    pub rtt_ms: f64,
    /// Layers in blocking-path order.
    pub rows: Vec<Row>,
    /// Round trip no layer accounts for, milliseconds.
    pub unattributed_ms: f64,
    /// True when some layer had to be clipped to fit the round trip.
    pub clipped: bool,
}

/// Splits `rtt_ms` over `layers` (name, mean ms) in order.
pub fn attribute(rtt_ms: f64, layers: &[(&'static str, f64)]) -> Ledger {
    let mut left = rtt_ms.max(0.0);
    let mut clipped = false;
    let rows = layers
        .iter()
        .map(|&(layer, measured_ms)| {
            let m = measured_ms.max(0.0);
            let attributed_ms = m.min(left);
            clipped |= attributed_ms < m;
            left -= attributed_ms;
            Row {
                layer,
                measured_ms,
                attributed_ms,
            }
        })
        .collect();
    Ledger {
        rtt_ms,
        rows,
        unattributed_ms: left,
        clipped,
    }
}

impl Ledger {
    /// Human-readable table, one layer per line.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("ledger {title}: mean round trip {:.4} ms\n", self.rtt_ms);
        for r in &self.rows {
            let share = if self.rtt_ms > 0.0 {
                100.0 * r.attributed_ms / self.rtt_ms
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<28} {:>9.4} ms  {:>5.1}%\n",
                r.layer, r.attributed_ms, share
            ));
        }
        let share = if self.rtt_ms > 0.0 {
            100.0 * self.unattributed_ms / self.rtt_ms
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<28} {:>9.4} ms  {:>5.1}%{}\n",
            "unattributed",
            self.unattributed_ms,
            share,
            if self.clipped {
                "  (layers clipped to the round trip)"
            } else {
                ""
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attributed(l: &Ledger) -> f64 {
        l.rows.iter().map(|r| r.attributed_ms).sum()
    }

    #[test]
    fn residual_is_what_layers_leave() {
        let l = attribute(4.0, &[("decode", 0.5), ("fusion", 1.5)]);
        assert_eq!(l.unattributed_ms, 2.0);
        assert!(!l.clipped);
        assert_eq!(attributed(&l), 2.0);
    }

    #[test]
    fn never_attributes_more_than_the_round_trip() {
        let l = attribute(1.0, &[("a", 0.7), ("b", 0.7), ("c", 5.0)]);
        assert!(l.clipped);
        assert_eq!(l.unattributed_ms, 0.0);
        assert!(attributed(&l) <= l.rtt_ms);
        assert_eq!(l.rows[0].attributed_ms, 0.7);
        assert!((l.rows[1].attributed_ms - 0.3).abs() < 1e-12);
        assert_eq!(l.rows[2].attributed_ms, 0.0);
        // The measured value is kept for the reader.
        assert_eq!(l.rows[2].measured_ms, 5.0);
    }

    #[test]
    fn sums_to_the_round_trip_for_any_inputs() {
        let cases: [(f64, &[(&'static str, f64)]); 4] = [
            (3.0, &[("a", 1.0), ("b", 1.0)]),
            (0.0, &[("a", 1.0)]),
            (2.0, &[("a", -1.0), ("b", 0.5)]),
            (1e-3, &[("a", 1e-4), ("b", 1e9)]),
        ];
        for (rtt, layers) in cases {
            let l = attribute(rtt, layers);
            assert!(l.unattributed_ms >= 0.0);
            assert!(attributed(&l) <= rtt + 1e-15);
            assert!((attributed(&l) + l.unattributed_ms - rtt.max(0.0)).abs() < 1e-12);
            assert!(l.rows.iter().all(|r| r.attributed_ms >= 0.0));
        }
    }
}
