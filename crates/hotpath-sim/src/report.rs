//! Report rendering: aligned text tables for the figure series and the
//! ASCII maps reproducing Figures 9 and 10.

use hotpath_core::coordinator::EndpointResponse;
use hotpath_core::geometry::{Rect, Segment};
use hotpath_core::raytrace::ClientState;
use hotpath_netsim::network::RoadNetwork;
use hotpath_netsim::scenario::EpochSample;

/// Renders an aligned table: a header row plus data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
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
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// An ASCII raster canvas for drawing maps.
pub struct AsciiMap {
    cols: usize,
    rows: usize,
    bounds: Rect,
    cells: Vec<u32>, // accumulated weight per cell
}

impl AsciiMap {
    /// Creates a canvas covering `bounds` with the given glyph grid.
    pub fn new(bounds: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols >= 2 && rows >= 2);
        AsciiMap { cols, rows, bounds, cells: vec![0; cols * rows] }
    }

    /// Accumulates a weighted segment (Bresenham over the raster).
    pub fn draw_segment(&mut self, seg: &Segment, weight: u32) {
        let (x0, y0) = self.to_cell(seg.a.x, seg.a.y);
        let (x1, y1) = self.to_cell(seg.b.x, seg.b.y);
        let (mut x, mut y) = (x0, y0);
        let dx = (x1 - x0).abs();
        let dy = -(y1 - y0).abs();
        let sx = if x0 < x1 { 1 } else { -1 };
        let sy = if y0 < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            self.bump(x, y, weight);
            if x == x1 && y == y1 {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    fn to_cell(&self, x: f64, y: f64) -> (i64, i64) {
        let fx = (x - self.bounds.lo().x) / self.bounds.width().max(1e-9);
        let fy = (y - self.bounds.lo().y) / self.bounds.height().max(1e-9);
        (
            ((fx * (self.cols - 1) as f64).round() as i64).clamp(0, self.cols as i64 - 1),
            ((fy * (self.rows - 1) as f64).round() as i64).clamp(0, self.rows as i64 - 1),
        )
    }

    fn bump(&mut self, x: i64, y: i64, weight: u32) {
        let idx = y as usize * self.cols + x as usize;
        self.cells[idx] = self.cells[idx].saturating_add(weight);
    }

    /// Renders the canvas: blank, then `.`, `+`, `#`, `@` with rising
    /// accumulated weight (y grows upward, like the figures).
    pub fn render(&self) -> String {
        let max = self.cells.iter().copied().max().unwrap_or(0).max(1);
        let glyph = |w: u32| -> char {
            if w == 0 {
                ' '
            } else {
                let f = w as f64 / max as f64;
                match f {
                    f if f > 0.75 => '@',
                    f if f > 0.4 => '#',
                    f if f > 0.15 => '+',
                    _ => '.',
                }
            }
        };
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for row in (0..self.rows).rev() {
            for col in 0..self.cols {
                out.push(glyph(self.cells[row * self.cols + col]));
            }
            out.push('\n');
        }
        out
    }

    /// Fraction of cells with any ink (used to compare coverage between
    /// the discovered paths and the underlying network).
    pub fn coverage(&self) -> f64 {
        self.cells.iter().filter(|&&c| c > 0).count() as f64 / self.cells.len() as f64
    }
}

/// Draws the road network itself (the reference picture, Figure 6).
pub fn network_map(net: &RoadNetwork, cols: usize, rows: usize) -> AsciiMap {
    let mut map = AsciiMap::new(net.bounds(), cols, rows);
    for l in net.links() {
        let seg = Segment::new(net.node(l.a).pos, net.node(l.b).pos);
        map.draw_segment(&seg, 1);
    }
    map
}

/// Draws a set of weighted paths over the network bounds (Figures 9-10).
pub fn paths_map(bounds: Rect, paths: &[(Segment, u32)], cols: usize, rows: usize) -> AsciiMap {
    let mut map = AsciiMap::new(bounds, cols, rows);
    for (seg, hot) in paths {
        map.draw_segment(seg, *hot);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::geometry::Point;
    use hotpath_netsim::network::{generate, NetworkParams};

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["N", "paths", "score"],
            &[
                vec!["10000".into(), "3.2".into(), "1000".into()],
                vec!["100".into(), "12345.6".into(), "9".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].contains("score"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let _ = table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn map_draws_diagonal() {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let mut map = AsciiMap::new(bounds, 20, 20);
        map.draw_segment(&Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)), 1);
        let s = map.render();
        assert!(s.contains('.') || s.contains('@'));
        // Roughly one mark per row.
        let marks = s.chars().filter(|&c| c != ' ' && c != '\n').count();
        assert!(marks >= 20, "diagonal too sparse: {marks}");
        assert!(map.coverage() > 0.04);
    }

    #[test]
    fn hotter_segments_use_heavier_glyphs() {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let mut map = AsciiMap::new(bounds, 20, 20);
        map.draw_segment(&Segment::new(Point::new(0.0, 10.0), Point::new(100.0, 10.0)), 100);
        map.draw_segment(&Segment::new(Point::new(0.0, 90.0), Point::new(100.0, 90.0)), 1);
        let s = map.render();
        let lines: Vec<&str> = s.lines().collect();
        // y grows upward: hot line in the bottom half, cold in the top.
        let top = lines[..10].join("");
        let bottom = lines[10..].join("");
        assert!(bottom.contains('@'), "hot row missing: {s}");
        assert!(top.contains('.'), "cold row missing: {s}");
        assert!(!top.contains('@'), "cold row should stay light: {s}");
    }

    #[test]
    fn network_map_covers_area() {
        let net = generate(NetworkParams::tiny(9));
        let map = network_map(&net, 40, 20);
        assert!(map.coverage() > 0.3, "network map too sparse: {}", map.coverage());
    }

    #[test]
    fn empty_paths_map_is_blank() {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let map = paths_map(bounds, &[], 10, 10);
        assert_eq!(map.coverage(), 0.0);
        assert!(map.render().chars().all(|c| c == ' ' || c == '\n'));
    }
}

/// Renders rows as CSV (header + records, RFC-4180-style quoting for
/// cells containing commas or quotes). Used by `experiments --csv` so
/// sweep series can be plotted externally.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Renders a run's per-epoch series as CSV — one record per epoch
/// boundary with the quality, timing, and communication columns. Used
/// by `experiments scenario --csv` so scenario runs can be plotted and
/// diffed externally. `epoch` and `timestamp` are the published
/// snapshot's. `rows` must start at the run's first boundary: the
/// downlink columns are derived, one reply per answered state, so
/// `downlink_msgs` is the row's `states_processed` delta and both byte
/// columns are message counts times the fixed wire sizes.
pub fn epoch_metrics_csv(rows: &[EpochSample]) -> String {
    let mut answered_before = 0;
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|e| {
            let answered = e.snap.processing.states_processed;
            let downlink = answered - std::mem::replace(&mut answered_before, answered);
            vec![
                e.snap.epoch.to_string(),
                e.snap.timestamp.raw().to_string(),
                e.reporting.to_string(),
                e.snap.index_size.to_string(),
                format!("{}", e.snap.top_k_score),
                format!("{}", e.processing.as_secs_f64() * 1e3),
                e.comm.uplink_msgs.to_string(),
                (e.comm.uplink_msgs * ClientState::WIRE_BYTES as u64).to_string(),
                downlink.to_string(),
                (downlink * EndpointResponse::WIRE_BYTES as u64).to_string(),
                e.snap.phase_b.deferred.to_string(),
            ]
        })
        .collect();
    csv(
        &[
            "epoch",
            "timestamp",
            "reporting",
            "index_size",
            "top_k_score",
            "processing_ms",
            "uplink_msgs",
            "uplink_bytes",
            "downlink_msgs",
            "downlink_bytes",
            "phase_b_deferred",
        ],
        &data,
    )
}

#[cfg(test)]
mod csv_tests {
    use super::csv;

    #[test]
    fn plain_cells_pass_through() {
        let s = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn commas_and_quotes_are_escaped() {
        let s = csv(&["x"], &[vec!["a,b".into()], vec!["say \"hi\"".into()]]);
        assert_eq!(s, "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn ragged_rows_rejected() {
        let _ = csv(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn epoch_metrics_render_one_record_per_epoch() {
        use hotpath_core::coordinator::HotSnapshot;
        use hotpath_core::stats::{CommStats, ProcessingStats};
        use hotpath_core::strategy::PhaseBLoad;
        use hotpath_core::time::Timestamp;
        use hotpath_netsim::scenario::EpochSample;
        use std::sync::Arc;
        use std::time::Duration;
        let rows = vec![EpochSample {
            snap: Arc::new(HotSnapshot {
                epoch: 3,
                timestamp: Timestamp(15),
                index_size: 42,
                top_k_score: 99.5,
                processing: ProcessingStats { states_processed: 7, ..ProcessingStats::default() },
                phase_b: PhaseBLoad { deferred: 5 },
                ..HotSnapshot::empty()
            }),
            reporting: 7,
            processing: Duration::from_millis(2),
            comm: CommStats { uplink_msgs: 7 },
            dp_index_size: None,
            dp_score: None,
        }];
        let s = super::epoch_metrics_csv(&rows);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2, "header plus one record");
        assert!(lines[0].starts_with("epoch,timestamp,reporting,index_size,top_k_score"));
        assert!(lines[0].ends_with("downlink_bytes,phase_b_deferred"));
        assert!(lines[1].starts_with("3,15,7,42,99.5,2,"));
        assert!(lines[1].ends_with("7,504,7,224,5"));
    }

    /// Checks the comm columns of `res`'s CSV row by row against counts
    /// the driver and the coordinator keep apart: the row's uplink,
    /// its answered states (reporting minus ejected), and the final
    /// `states_processed`. Returns the rows whose uplink and downlink
    /// counts differ.
    fn check_comm_columns(res: &crate::scenario_run::ScenarioRunResult) -> usize {
        let rows = &res.outcome.per_epoch;
        let csv = super::epoch_metrics_csv(rows);
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
        let cols = ["uplink_msgs", "uplink_bytes", "downlink_msgs", "downlink_bytes"].map(col);
        let (mut ejected_before, mut downlink_total, mut differ) = (0, 0, 0);
        for (line, e) in lines.zip(rows) {
            let cells: Vec<&str> = line.split(',').collect();
            let [up, up_bytes, down, down_bytes] = cols.map(|c| cells[c].parse::<u64>().unwrap());
            let ejected = e.snap.admission.ejected - ejected_before;
            ejected_before = e.snap.admission.ejected;
            assert_eq!(up, e.comm.uplink_msgs, "epoch {}", e.snap.epoch);
            assert_eq!(up_bytes, 72 * up, "epoch {}", e.snap.epoch);
            assert_eq!(down, e.reporting as u64 - ejected, "epoch {}", e.snap.epoch);
            assert_eq!(down_bytes, 32 * down, "epoch {}", e.snap.epoch);
            downlink_total += down;
            differ += usize::from(up != down);
        }
        assert_eq!(downlink_total, res.coordinator.processing_stats().states_processed);
        differ
    }

    /// The derived comm columns hold on every row of a Table 2 run, and
    /// of a run whose queue cap ejects states, where the uplink and
    /// downlink counts part.
    #[test]
    fn epoch_metrics_derive_comm_columns_from_the_counts() {
        use crate::scenario_run::{run_named, run_scenario, ScenarioRunParams};
        use hotpath_netsim::scenario::{ScenarioParams, Workload};
        let table2 =
            run_scenario(&mut Workload::uniform_quick(200, 102), &ScenarioRunParams::table2());
        assert!(table2.outcome.per_epoch.len() > 5);
        check_comm_columns(&table2);
        let storm =
            run_named("reconnect_storm", &ScenarioParams::quick(7), &ScenarioRunParams::default())
                .expect("reconnect_storm is registered");
        assert!(storm.coordinator.admission_stats().ejected > 0, "the cap never ejected");
        assert!(check_comm_columns(&storm) > 0, "no row told uplink from downlink");
    }
}
