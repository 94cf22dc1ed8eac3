//! ASCII schedule charts from supply logs.
//!
//! Renders the per-VCPU execution intervals recorded by
//! [`SupplyLog`] as a text Gantt chart — a cheap way
//! to eyeball a schedule: release synchronization, the well-regulated
//! pattern, throttling gaps.
//!
//! ```text
//! time [0.0, 40.0] ms, '#' = running
//! V0 |####......####......####......####......|
//! V1 |....######....######....######....######|
//! ```

use crate::SupplyLog;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vc2m_model::{SimTime, VcpuId};

/// Renders the logs over `[from, to)` as one row per VCPU, `width`
/// characters wide.
///
/// Each character cell covers `(to − from)/width` of simulated time
/// and is drawn `#` if the VCPU ran during **any** part of the cell,
/// `.` otherwise. Rows are ordered by VCPU id.
///
/// # Panics
///
/// Panics if `from >= to` or `width` is zero.
pub fn render(
    logs: &BTreeMap<VcpuId, SupplyLog>,
    from: SimTime,
    to: SimTime,
    width: usize,
) -> String {
    assert!(from < to, "need a non-empty window");
    assert!(width > 0, "need a positive width");
    let span = to.as_ns() - from.as_ns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "time [{:.1}, {:.1}] ms, '#' = running",
        from.as_ms(),
        to.as_ms()
    );
    for (id, log) in logs {
        let mut cells = vec![false; width];
        for (start, end) in log.iter() {
            let (s, e) = (start.as_ns(), end.as_ns());
            if e <= from.as_ns() || s >= to.as_ns() {
                continue;
            }
            let s = s.max(from.as_ns()) - from.as_ns();
            let e = e.min(to.as_ns()) - from.as_ns();
            // Cell indices touched by [s, e): inclusive of the cell
            // containing e−1.
            let first = (s as u128 * width as u128 / span as u128) as usize;
            let last = ((e - 1) as u128 * width as u128 / span as u128) as usize;
            for cell in cells.iter_mut().take(last.min(width - 1) + 1).skip(first) {
                *cell = true;
            }
        }
        let row: String = cells.iter().map(|&r| if r { '#' } else { '.' }).collect();
        let _ = writeln!(out, "{id:>4} |{row}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::SimDuration;

    fn logs() -> BTreeMap<VcpuId, SupplyLog> {
        let mut l0 = SupplyLog::new(SimDuration::from_ms(10.0), SimTime::ZERO);
        l0.record(SimTime::from_ms(0.0), SimTime::from_ms(4.0));
        l0.record(SimTime::from_ms(10.0), SimTime::from_ms(14.0));
        let mut l1 = SupplyLog::new(SimDuration::from_ms(10.0), SimTime::ZERO);
        l1.record(SimTime::from_ms(4.0), SimTime::from_ms(10.0));
        l1.record(SimTime::from_ms(14.0), SimTime::from_ms(20.0));
        [(VcpuId(0), l0), (VcpuId(1), l1)].into_iter().collect()
    }

    #[test]
    fn renders_complementary_rows() {
        let out = render(&logs(), SimTime::ZERO, SimTime::from_ms(20.0), 20);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("[0.0, 20.0]"));
        // 1 ms per cell: V0 runs [0,4) and [10,14).
        assert!(lines[1].contains("|####......####......|"), "{out}");
        assert!(lines[2].contains("|....######....######|"), "{out}");
    }

    #[test]
    fn window_clipping() {
        let out = render(&logs(), SimTime::from_ms(10.0), SimTime::from_ms(20.0), 10);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].contains("|####......|"), "{out}");
        assert!(lines[2].contains("|....######|"), "{out}");
    }

    #[test]
    fn empty_logs_render_header_only() {
        let out = render(&BTreeMap::new(), SimTime::ZERO, SimTime::from_ms(1.0), 10);
        assert_eq!(out.lines().count(), 1);
    }

    #[test]
    fn sub_cell_execution_still_marks_the_cell() {
        let mut l = SupplyLog::new(SimDuration::from_ms(10.0), SimTime::ZERO);
        l.record(SimTime::from_ms(5.0), SimTime::from_ms(5.1));
        let logs: BTreeMap<VcpuId, SupplyLog> = [(VcpuId(0), l)].into_iter().collect();
        let out = render(&logs, SimTime::ZERO, SimTime::from_ms(10.0), 10);
        assert!(
            out.lines().nth(1).unwrap().contains("|.....#....|"),
            "{out}"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty window")]
    fn empty_window_panics() {
        let _ = render(
            &BTreeMap::new(),
            SimTime::from_ms(5.0),
            SimTime::from_ms(5.0),
            10,
        );
    }
}
