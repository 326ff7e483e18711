//! Net routing between placed modules.
//!
//! A disciplined two-level channel router:
//!
//! * the placed modules form horizontal **rows** (the slicing column);
//!   between consecutive rows — and below/above the stack — lie routing
//!   **channels**;
//! * every port connects with a short vertical **riser** (metal-2) to a
//!   **track** (metal-1) in the channel nearest to it, so risers never
//!   dive through foreign geometry;
//! * a net with tracks in several channels gets one vertical **trunk**
//!   (metal-2) in a reserved zone left of all modules, joining its tracks
//!   through leftward track extensions.
//!
//! Horizontal tracks are stacked one per net per channel (width plus
//! spacing by construction); risers prefer x slots inside their own port
//! span and are staggered against other metal-2; trunks are staggered in
//! their own zone. Wire widths and via counts follow the
//! electromigration rules (the paper's "reliability constraints").

use crate::cell::Cell;
use crate::geom::Rect;
use losac_tech::units::Nm;
use losac_tech::{Layer, Technology};
use std::collections::BTreeMap;
use std::fmt;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteOptions {
    /// Clearance between a module row and the first track of the
    /// adjacent channel (nm).
    pub channel_margin: Nm,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            channel_margin: 2_000,
        }
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    message: String,
}

impl RouteError {
    fn new(m: impl Into<String>) -> Self {
        Self { message: m.into() }
    }
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "routing failed: {}", self.message)
    }
}

impl std::error::Error for RouteError {}

/// Summary of the drawn interconnect, for extraction and reporting.
#[derive(Debug, Clone, Default)]
pub struct RouteReport {
    /// Total routed wire length per net (m), all layers.
    pub net_length: BTreeMap<String, f64>,
    /// Track rectangles per net (one per channel the net uses).
    pub tracks: BTreeMap<String, Vec<Rect>>,
    /// Nets routed, in processing order.
    pub order: Vec<String>,
    /// Nets that needed a vertical trunk.
    pub trunked: Vec<String>,
}

impl RouteReport {
    /// Number of tracks a net occupies (0 for unrouted single-port nets).
    pub fn track_count(&self, net: &str) -> usize {
        self.tracks.get(net).map_or(0, |t| t.len())
    }
}

/// How many tracks each channel of a layout will need: the per-channel
/// demand of [`route_rows`] for the same arguments. Index `k` is the
/// channel *below* row `k`; index `rows.len()` is the channel above the
/// top row. Use it to reserve vertical spacing before placement.
pub fn channel_demand(cell: &Cell, rows: &[(Nm, Nm)]) -> Vec<usize> {
    let mut nets_per_channel: Vec<std::collections::BTreeSet<&str>> =
        vec![Default::default(); rows.len() + 1];
    let mut ports_per_net: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &cell.ports {
        *ports_per_net.entry(p.net.as_str()).or_insert(0) += 1;
    }
    for p in &cell.ports {
        if ports_per_net[p.net.as_str()] < 2 {
            continue;
        }
        let ch = nearest_channel(rows, &p.rect);
        nets_per_channel[ch].insert(p.net.as_str());
    }
    nets_per_channel.into_iter().map(|s| s.len()).collect()
}

/// Channel index nearest to a port: `k` = below row `k`,
/// `rows.len()` = above the top row.
fn nearest_channel(rows: &[(Nm, Nm)], port: &Rect) -> usize {
    let cy = port.center().y;
    // Find the row the port belongs to (or is nearest to).
    let mut best_row = 0usize;
    let mut best_d = Nm::MAX;
    for (k, (y0, y1)) in rows.iter().enumerate() {
        let d = if cy < *y0 {
            y0 - cy
        } else if cy > *y1 {
            cy - y1
        } else {
            0
        };
        if d < best_d {
            best_d = d;
            best_row = k;
        }
    }
    let (y0, y1) = rows[best_row];
    // Below the row's midline → the channel below; above → the one above.
    if cy - y0 <= y1 - cy {
        best_row
    } else {
        best_row + 1
    }
}

/// Route all multi-port nets of `cell`.
///
/// `rows` lists the y extents of the module rows, bottom-up. Tracks are
/// stacked downward from each channel's ceiling (and upward above the top
/// row); the function errors when a between-rows channel cannot fit its
/// tracks — callers should reserve spacing with [`channel_demand`] first.
///
/// # Errors
///
/// Returns [`RouteError`] on an empty cell, unordered rows, or channel
/// overflow.
pub fn route_rows(
    tech: &Technology,
    cell: &mut Cell,
    net_currents: &BTreeMap<String, f64>,
    rows: &[(Nm, Nm)],
    opts: &RouteOptions,
) -> Result<RouteReport, RouteError> {
    let r = &tech.rules;
    let Some(bbox) = cell.bbox() else {
        return Err(RouteError::new("cannot route an empty cell"));
    };
    if rows.is_empty() {
        return Err(RouteError::new("at least one module row required"));
    }
    for w in rows.windows(2) {
        if w[0].1 > w[1].0 {
            return Err(RouteError::new(
                "rows must be sorted bottom-up and disjoint",
            ));
        }
    }

    // Gather ports per net (BTreeMap: deterministic order).
    let mut net_ports: BTreeMap<String, Vec<Rect>> = BTreeMap::new();
    for p in &cell.ports {
        net_ports.entry(p.net.clone()).or_default().push(p.rect);
    }
    let routable: Vec<(String, Vec<Rect>)> = net_ports
        .into_iter()
        .filter(|(_, ports)| ports.len() >= 2)
        .collect();

    // Channel geometry: ceiling y per channel (tracks stack downward from
    // it) and the floor that must not be crossed (None = open below;
    // the topmost channel instead stacks upward from its floor).
    let n_channels = rows.len() + 1;
    let mut ceiling: Vec<Nm> = Vec::with_capacity(n_channels);
    let mut floor: Vec<Option<Nm>> = Vec::with_capacity(n_channels);
    for k in 0..n_channels {
        if k == 0 {
            ceiling.push(rows[0].0 - opts.channel_margin);
            floor.push(None);
        } else if k == rows.len() {
            ceiling.push(rows[k - 1].1 + opts.channel_margin);
            floor.push(None);
        } else {
            ceiling.push(rows[k].0 - opts.channel_margin);
            floor.push(Some(rows[k - 1].1 + opts.channel_margin));
        }
    }
    // Next free y per channel.
    let mut cursor: Vec<Nm> = ceiling.clone();

    let riser_pitch = r.metal2_width.max(r.via_size + 2 * r.metal_over_via) + r.metal2_space;
    let mut riser_slots: Vec<(Rect, String)> = Vec::new();
    let existing_m2: Vec<(Rect, String)> = cell
        .shapes_on(Layer::Metal2)
        .filter_map(|s| s.net.clone().map(|n| (s.rect, n)))
        .collect();

    // Trunk zone: left of everything.
    let trunk_pitch = r.metal2_width.max(r.via_size + 2 * r.metal_over_via) + 2 * r.metal2_space;
    let trunk_zone_x = bbox.x0 - 2 * opts.channel_margin;
    let mut n_trunks = 0;

    let mut report = RouteReport::default();
    // All derived coordinates (port centres are half-grid after integer
    // halving) are snapped before anything is drawn.
    let snap_rect = |rc: Rect| {
        Rect::new(
            tech.snap(rc.x0),
            tech.snap(rc.y0),
            tech.snap(rc.x1),
            tech.snap(rc.y1),
        )
    };

    for (net, ports) in routable {
        let current = net_currents.get(&net).copied().unwrap_or(0.0);
        let track_w = tech.snap_up(
            r.metal1_width
                .max(tech.reliability.min_metal_width(1, current)),
        );
        let riser_w = tech.snap_up(
            r.metal2_width
                .max(r.via_size + 2 * r.metal_over_via)
                .max(tech.reliability.min_metal_width(2, current)),
        );

        // Group this net's ports per channel.
        let mut per_channel: BTreeMap<usize, Vec<Rect>> = BTreeMap::new();
        for p in &ports {
            per_channel
                .entry(nearest_channel(rows, p))
                .or_default()
                .push(*p);
        }

        let mut track_rects: Vec<Rect> = Vec::new();
        let mut length_m = 0.0;
        let track_gap = 2 * r.metal1_space;

        // Trunk decision first so every track can extend to it.
        let needs_trunk = per_channel.len() > 1;
        let trunk_x = if needs_trunk {
            let x = trunk_zone_x - (n_trunks as Nm) * trunk_pitch;
            n_trunks += 1;
            Some(x)
        } else {
            None
        };

        for (&ch, ch_ports) in &per_channel {
            // Allocate the track y in this channel.
            let upward = ch == rows.len();
            let ty0 = if upward {
                let y = cursor[ch];
                cursor[ch] = y + track_w + track_gap;
                y
            } else {
                let y = cursor[ch] - track_w;
                cursor[ch] = y - track_gap;
                if let Some(fl) = floor[ch] {
                    if y < fl {
                        return Err(RouteError::new(format!(
                            "channel {ch} overflow: reserve more vertical spacing \
                             (see channel_demand)"
                        )));
                    }
                }
                y
            };

            // Risers.
            let mut x_min = Nm::MAX;
            let mut x_max = Nm::MIN;
            for port in ch_ports {
                let (ry0, ry1) = if port.center().y <= ty0 {
                    (
                        port.center().y - r.metal_over_via - r.via_size / 2,
                        ty0 + track_w,
                    )
                } else {
                    (ty0, port.center().y + r.metal_over_via + r.via_size / 2)
                };
                let clashes = |x: Nm| {
                    let cand = Rect::new(x - riser_w / 2, ry0.min(ry1 - 1), x + riser_w / 2, ry1);
                    let hit = |rect: &Rect, onet: &str| {
                        onet != net && rect.expanded(r.metal2_space).overlaps(&cand)
                    };
                    riser_slots.iter().any(|(rect, onet)| hit(rect, onet))
                        || existing_m2.iter().any(|(rect, onet)| hit(rect, onet))
                };
                let centre = tech.snap(port.center().x);
                let inside = |x: Nm| x - riser_w / 2 >= port.x0 && x + riser_w / 2 <= port.x1;
                let mut x = centre;
                let mut found = false;
                for k in 0..400 {
                    let off = ((k + 1) / 2) as Nm * if k % 2 == 1 { 1 } else { -1 };
                    let cand = centre + off * riser_pitch;
                    if inside(cand) && !clashes(cand) {
                        x = cand;
                        found = true;
                        break;
                    }
                }
                if !found {
                    x = centre;
                    while clashes(x) {
                        x += riser_pitch;
                    }
                }
                let riser = snap_rect(Rect::new(x - riser_w / 2, ry0, x + riser_w / 2, ry1));
                cell.draw_net(Layer::Metal2, riser, &net);
                riser_slots.push((riser, net.clone()));
                length_m += riser.height() as f64 * 1e-9;

                // Port-rail extension when the riser had to leave the port.
                if x + riser_w / 2 > port.x1 || x - riser_w / 2 < port.x0 {
                    let ext = snap_rect(Rect::new(
                        port.x0.min(x - riser_w / 2),
                        port.y0,
                        port.x1.max(x + riser_w / 2),
                        port.y1,
                    ));
                    cell.draw_net(Layer::Metal1, ext, &net);
                    length_m += (ext.width() - port.width()) as f64 * 1e-9;
                }

                // Vias at both ends of the riser.
                let n_vias = tech
                    .reliability
                    .min_vias(current / ports.len() as f64)
                    .max(1);
                let via_pitch = r.via_size + r.via_space;
                let fit =
                    (((riser_w - 2 * r.metal_over_via + r.via_space) / via_pitch) as usize).max(1);
                for k in 0..n_vias.min(fit) {
                    let vx = tech.snap(x - riser_w / 2 + r.metal_over_via + (k as Nm) * via_pitch);
                    let vy_port = tech.snap(port.y0 + (port.height() - r.via_size) / 2);
                    let vy_track = tech.snap(ty0 + (track_w - r.via_size).max(0) / 2);
                    cell.draw_net(
                        Layer::Via1,
                        Rect::from_size(vx, vy_port, r.via_size, r.via_size),
                        &net,
                    );
                    cell.draw_net(
                        Layer::Via1,
                        Rect::from_size(vx, vy_track, r.via_size, r.via_size),
                        &net,
                    );
                }
                x_min = x_min.min(x - riser_w / 2);
                x_max = x_max.max(x + riser_w / 2);
            }

            // The track spans its risers, extended to the trunk if any.
            if let Some(tx) = trunk_x {
                x_min = x_min.min(tx - riser_w / 2);
            }
            let track = snap_rect(Rect::new(
                x_min,
                ty0,
                x_max.max(x_min + track_w),
                ty0 + track_w,
            ));
            cell.draw_net(Layer::Metal1, track, &net);
            length_m += track.width() as f64 * 1e-9;
            track_rects.push(track);
        }

        // The trunk joins the net's tracks.
        if let Some(tx) = trunk_x {
            let y_lo = track_rects
                .iter()
                .map(|t| t.y0)
                .min()
                .expect("tracks exist");
            let y_hi = track_rects
                .iter()
                .map(|t| t.y1)
                .max()
                .expect("tracks exist");
            let trunk = snap_rect(Rect::new(tx - riser_w / 2, y_lo, tx + riser_w / 2, y_hi));
            cell.draw_net(Layer::Metal2, trunk, &net);
            riser_slots.push((trunk, net.clone()));
            length_m += trunk.height() as f64 * 1e-9;
            for t in &track_rects {
                let vy = tech.snap(t.y0 + (t.height() - r.via_size).max(0) / 2);
                cell.draw_net(
                    Layer::Via1,
                    Rect::from_size(tech.snap(tx - r.via_size / 2), vy, r.via_size, r.via_size),
                    &net,
                );
            }
            report.trunked.push(net.clone());
        }

        report.net_length.insert(net.clone(), length_m);
        report.tracks.insert(net.clone(), track_rects);
        report.order.push(net.clone());
    }

    Ok(report)
}

/// Route with a single module row covering the whole cell — the simple
/// configuration used by stand-alone blocks and the unit tests.
///
/// # Errors
///
/// Same failure modes as [`route_rows`].
pub fn route_channel(
    tech: &Technology,
    cell: &mut Cell,
    net_currents: &BTreeMap<String, f64>,
    opts: &RouteOptions,
) -> Result<RouteReport, RouteError> {
    let bbox = cell
        .bbox()
        .ok_or_else(|| RouteError::new("cannot route an empty cell"))?;
    route_rows(tech, cell, net_currents, &[(bbox.y0, bbox.y1)], opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::units::um;

    /// A toy cell with two modules exposing ports on shared nets.
    fn two_module_cell() -> Cell {
        let mut c = Cell::new("top");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, 0, um(20.0), um(1.0)),
            "n1",
        );
        c.port(
            "a.x",
            "n1",
            Layer::Metal1,
            Rect::from_size(0, 0, um(20.0), um(1.0)),
        );
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, um(3.0), um(20.0), um(1.0)),
            "n2",
        );
        c.port(
            "a.y",
            "n2",
            Layer::Metal1,
            Rect::from_size(0, um(3.0), um(20.0), um(1.0)),
        );
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(um(30.0), 0, um(20.0), um(1.0)),
            "n1",
        );
        c.port(
            "b.x",
            "n1",
            Layer::Metal1,
            Rect::from_size(um(30.0), 0, um(20.0), um(1.0)),
        );
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(um(30.0), um(3.0), um(20.0), um(1.0)),
            "n2",
        );
        c.port(
            "b.y",
            "n2",
            Layer::Metal1,
            Rect::from_size(um(30.0), um(3.0), um(20.0), um(1.0)),
        );
        c
    }

    fn no_cross_net_violations(tech: &Technology, cell: &Cell) {
        for (i, a) in cell.shapes.iter().enumerate() {
            for b in cell.shapes.iter().skip(i + 1) {
                if a.layer != b.layer || !(a.layer.is_routing() || a.layer.is_cut()) {
                    continue;
                }
                if let (Some(na), Some(nb)) = (&a.net, &b.net) {
                    if na != nb {
                        assert!(
                            !a.rect.overlaps(&b.rect),
                            "short {na}/{nb} on {:?} at {} vs {}",
                            a.layer,
                            a.rect,
                            b.rect
                        );
                        if a.layer == Layer::Metal2 {
                            assert!(
                                a.rect.spacing_to(&b.rect) >= tech.rules.metal2_space,
                                "m2 spacing {na}/{nb}: {} vs {}",
                                a.rect,
                                b.rect
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn routes_each_net_on_its_own_track() {
        let tech = Technology::cmos06();
        let mut cell = two_module_cell();
        let report =
            route_channel(&tech, &mut cell, &BTreeMap::new(), &RouteOptions::default()).unwrap();
        assert_eq!(report.order.len(), 2);
        // Ports near the bottom (n1) and near the top (n2) of the single
        // row pick their nearest channels.
        let t1 = report.tracks["n1"][0];
        let t2 = report.tracks["n2"][0];
        assert!(!t1.overlaps(&t2));
        assert!(t1.y1 <= 0, "n1 below the modules: {t1}");
        assert!(t2.y0 >= um(4.0), "n2 above the modules: {t2}");
    }

    #[test]
    fn wire_length_accounted() {
        let tech = Technology::cmos06();
        let mut cell = two_module_cell();
        let report =
            route_channel(&tech, &mut cell, &BTreeMap::new(), &RouteOptions::default()).unwrap();
        for net in ["n1", "n2"] {
            let len = report.net_length[net];
            assert!(len > 10e-6 && len < 200e-6, "net {net} length {len}");
        }
    }

    #[test]
    fn high_current_net_gets_wide_track() {
        let tech = Technology::cmos06();
        let mut cell = two_module_cell();
        let mut currents = BTreeMap::new();
        currents.insert("n1".to_owned(), 5e-3);
        let report = route_channel(&tech, &mut cell, &currents, &RouteOptions::default()).unwrap();
        assert!(report.tracks["n1"][0].height() >= um(5.0));
        assert!(report.tracks["n2"][0].height() < um(2.0));
    }

    #[test]
    fn no_cross_net_shorts_after_routing() {
        let tech = Technology::cmos06();
        let mut cell = two_module_cell();
        route_channel(&tech, &mut cell, &BTreeMap::new(), &RouteOptions::default()).unwrap();
        no_cross_net_violations(&tech, &cell);
    }

    #[test]
    fn two_rows_get_a_middle_channel_and_trunks() {
        let tech = Technology::cmos06();
        let mut c = Cell::new("top");
        // Row 0 (y 0..4 µm) and row 1 (y 30..34 µm); net "x" has ports in
        // both rows → trunked; net "lo" only in row 0.
        for (k, y) in [(0, 0), (1, um(30.0))] {
            let rail = Rect::from_size(0, y + um(3.0), um(40.0), um(1.0));
            c.draw_net(Layer::Metal1, rail, "x");
            c.port(&format!("x{k}"), "x", Layer::Metal1, rail);
        }
        let lo = Rect::from_size(0, 0, um(40.0), um(1.0));
        c.draw_net(Layer::Metal1, lo, "lo");
        c.port("lo0", "lo", Layer::Metal1, lo);
        let lo2 = Rect::from_size(um(50.0), 0, um(20.0), um(1.0));
        c.draw_net(Layer::Metal1, lo2, "lo");
        c.port("lo1", "lo", Layer::Metal1, lo2);

        let rows = [(0, um(4.0)), (um(30.0), um(34.0))];
        let report = route_rows(
            &tech,
            &mut c,
            &BTreeMap::new(),
            &rows,
            &RouteOptions::default(),
        )
        .unwrap();
        assert_eq!(report.track_count("x"), 2, "one track per channel");
        assert_eq!(report.trunked, vec!["x".to_owned()]);
        assert_eq!(report.track_count("lo"), 1);
        no_cross_net_violations(&tech, &c);
        // The trunk lives left of all modules.
        let trunk = c
            .shapes_on(Layer::Metal2)
            .map(|s| s.rect)
            .min_by_key(|r| r.x0)
            .unwrap();
        assert!(trunk.x1 < 0, "trunk left of the modules: {trunk}");
    }

    #[test]
    fn channel_demand_counts_nets() {
        let c = {
            let mut c = Cell::new("top");
            for (k, y) in [(0, 0), (1, um(30.0))] {
                let rail = Rect::from_size(0, y + um(3.0), um(40.0), um(1.0));
                c.draw_net(Layer::Metal1, rail, "x");
                c.port(&format!("x{k}"), "x", Layer::Metal1, rail);
            }
            let lo = Rect::from_size(0, 0, um(40.0), um(1.0));
            c.draw_net(Layer::Metal1, lo, "lo");
            c.port("lo0", "lo", Layer::Metal1, lo);
            c.port("lo1", "lo", Layer::Metal1, lo);
            c
        };
        let rows = [(0, um(4.0)), (um(30.0), um(34.0))];
        let demand = channel_demand(&c, &rows);
        // Channel 0 (below row 0): "lo". Channel 1 (between): "x" (the
        // port at the top of row 0). Channel 2 (above row 1): "x".
        assert_eq!(demand, vec![1, 1, 1]);
    }

    #[test]
    fn channel_overflow_reported() {
        let tech = Technology::cmos06();
        let mut c = Cell::new("top");
        // Two rows almost touching; ten nets forced into the middle
        // channel must overflow.
        for n in 0..10 {
            let y0 = um(3.0);
            let rail = Rect::from_size(um(5.0 * n as f64), y0, um(4.0), um(1.0));
            c.draw_net(Layer::Metal1, rail, &format!("n{n}"));
            c.port(&format!("a{n}"), &format!("n{n}"), Layer::Metal1, rail);
            let rail2 = Rect::from_size(um(5.0 * n as f64), um(8.0), um(4.0), um(1.0));
            c.draw_net(Layer::Metal1, rail2, &format!("n{n}"));
            c.port(&format!("b{n}"), &format!("n{n}"), Layer::Metal1, rail2);
        }
        let rows = [(0, um(4.0)), (um(8.0), um(12.0))];
        let err = route_rows(
            &tech,
            &mut c,
            &BTreeMap::new(),
            &rows,
            &RouteOptions::default(),
        );
        assert!(err.is_err(), "middle channel must overflow");
        assert!(err.unwrap_err().to_string().contains("overflow"));
    }

    #[test]
    fn single_port_nets_left_alone() {
        let tech = Technology::cmos06();
        let mut c = Cell::new("top");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, 0, um(5.0), um(1.0)),
            "pin",
        );
        c.port(
            "p",
            "pin",
            Layer::Metal1,
            Rect::from_size(0, 0, um(5.0), um(1.0)),
        );
        let report =
            route_channel(&tech, &mut c, &BTreeMap::new(), &RouteOptions::default()).unwrap();
        assert!(report.order.is_empty());
    }

    #[test]
    fn empty_cell_rejected() {
        let tech = Technology::cmos06();
        let mut c = Cell::new("top");
        assert!(route_channel(&tech, &mut c, &BTreeMap::new(), &RouteOptions::default()).is_err());
    }

    #[test]
    fn colliding_risers_are_staggered() {
        let tech = Technology::cmos06();
        let mut c = Cell::new("top");
        for (k, net) in ["p", "q"].iter().enumerate() {
            let y = um(2.0 * k as f64);
            c.draw_net(Layer::Metal1, Rect::from_size(0, y, um(10.0), um(1.0)), net);
            c.port(
                &format!("{net}0"),
                net,
                Layer::Metal1,
                Rect::from_size(0, y, um(10.0), um(1.0)),
            );
            let y2 = um(2.0 * k as f64 + 1.0);
            c.draw_net(
                Layer::Metal1,
                Rect::from_size(0, y2, um(10.0), um(1.0)),
                net,
            );
            c.port(
                &format!("{net}1"),
                net,
                Layer::Metal1,
                Rect::from_size(0, y2, um(10.0), um(1.0)),
            );
        }
        route_channel(&tech, &mut c, &BTreeMap::new(), &RouteOptions::default()).unwrap();
        no_cross_net_violations(&tech, &c);
    }
}
