//! The transistor-row builder: the geometry engine behind every device
//! generator.
//!
//! A *row* is a single strip of active with `n` poly fingers over it and
//! `n + 1` contacted diffusion strips between/around them. Each diffusion
//! strip and each gate is bound to a net; fingers belong to devices (or
//! are dummies). The builder draws:
//!
//! * the active area, implants, and (for PMOS) the enclosing N-well,
//! * poly fingers, joined per gate net by poly bars above/below the
//!   active, each bar contacted to a metal-1 port pad,
//! * contact columns in every diffusion strip — the contact count follows
//!   the electromigration rules,
//! * metal-1 straps over the strips, metal-2 risers, and one horizontal
//!   metal-1 rail per diffusion net — rail and riser widths follow the
//!   electromigration rules,
//! * ports for every net.
//!
//! All device generators (single folded transistor, interdigitated /
//! common-centroid pairs, current-mirror stacks) reduce to a
//! [`RowLayout`], which is what makes their matching patterns easy to
//! test. One routine holds the row arithmetic: [`build_row`] runs it into
//! a [`Cell`], and [`row_size`] runs it into a bounding box, which is how
//! a plan's shape functions measure every fold candidate without drawing
//! it.

use crate::cell::Cell;
use crate::geom::Rect;
use losac_tech::units::Nm;
use losac_tech::{Layer, Polarity, Technology};
use std::collections::BTreeMap;
use std::fmt;

/// One poly finger of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finger {
    /// Net of the gate.
    pub gate_net: String,
    /// Owning device name, or `None` for a dummy finger.
    pub device: Option<String>,
    /// Current flows source→drain in +x (`false`) or −x (`true`)?
    /// Pure bookkeeping for the matching analysis; the drawn geometry is
    /// identical.
    pub flipped: bool,
}

/// Specification of a transistor row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSpec {
    /// Cell name.
    pub name: String,
    /// Device polarity of the whole row.
    pub polarity: Polarity,
    /// Channel width of each finger (nm).
    pub finger_w: Nm,
    /// Drawn channel length (nm).
    pub gate_l: Nm,
    /// Diffusion-strip nets, length = fingers + 1.
    pub strip_nets: Vec<String>,
    /// The fingers, in x order.
    pub fingers: Vec<Finger>,
    /// Bulk net (well or substrate).
    pub bulk_net: String,
    /// Total DC current carried by each net (A), for electromigration
    /// sizing. Missing nets are treated as signal-level (minimum widths).
    pub net_currents: BTreeMap<String, f64>,
}

/// A transistor row as the row routine reads it. [`RowSpec`] spells a
/// row out; a plan's folded device ([`crate::plan::FoldedDevice`])
/// derives its strips and fingers from the device and its fold count, so
/// measuring a fold candidate allocates nothing per strip or finger.
pub trait RowLayout {
    /// Cell name.
    fn name(&self) -> &str;
    /// Device polarity of the whole row.
    fn polarity(&self) -> Polarity;
    /// Channel width of each finger (nm).
    fn finger_w(&self) -> Nm;
    /// Drawn channel length (nm).
    fn gate_l(&self) -> Nm;
    /// Number of fingers.
    fn fingers(&self) -> usize;
    /// Number of diffusion strips; a well-formed row has fingers + 1.
    fn strips(&self) -> usize;
    /// Net of diffusion strip `i`, counted from the left.
    fn strip_net(&self, i: usize) -> &str;
    /// Gate net of finger `i`, or `None` for a dummy finger, whose gate
    /// ties to the strip on its left.
    fn gate_net(&self, i: usize) -> Option<&str>;
    /// Bulk net (well or substrate).
    fn bulk_net(&self) -> &str;
    /// Total DC current of `net` (A); 0 for a net without an entry.
    fn net_current(&self, net: &str) -> f64;
}

impl RowLayout for RowSpec {
    fn name(&self) -> &str {
        &self.name
    }
    fn polarity(&self) -> Polarity {
        self.polarity
    }
    fn finger_w(&self) -> Nm {
        self.finger_w
    }
    fn gate_l(&self) -> Nm {
        self.gate_l
    }
    fn fingers(&self) -> usize {
        self.fingers.len()
    }
    fn strips(&self) -> usize {
        self.strip_nets.len()
    }
    fn strip_net(&self, i: usize) -> &str {
        &self.strip_nets[i]
    }
    fn gate_net(&self, i: usize) -> Option<&str> {
        let f = &self.fingers[i];
        f.device.as_ref().map(|_| f.gate_net.as_str())
    }
    fn bulk_net(&self) -> &str {
        &self.bulk_net
    }
    fn net_current(&self, net: &str) -> f64 {
        self.net_currents.get(net).copied().unwrap_or(0.0)
    }
}

/// Row construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError {
    message: String,
}

impl RowError {
    fn new(m: impl Into<String>) -> Self {
        Self { message: m.into() }
    }
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row generation failed: {}", self.message)
    }
}

impl std::error::Error for RowError {}

/// A generated row: the cell plus the bookkeeping the parasitic
/// calculation mode reports back to the sizing tool.
#[derive(Debug, Clone)]
pub struct Row {
    /// The generated geometry.
    pub cell: Cell,
    /// Diffusion area per net (m²) — junction bottom plates.
    pub diff_area: BTreeMap<String, f64>,
    /// Diffusion sidewall perimeter per net (m), gate edges excluded.
    pub diff_perimeter: BTreeMap<String, f64>,
    /// N-well rectangle (PMOS rows), for floating-well capacitance.
    pub well: Option<Rect>,
    /// Number of contacts placed per strip-net.
    pub contacts: BTreeMap<String, usize>,
    /// Whether every wire/contact met its electromigration requirement.
    pub em_clean: bool,
}

/// Minimum finger width that can host one contact (nm).
pub fn min_finger_width(tech: &Technology) -> Nm {
    tech.rules.contact_size + 2 * tech.rules.active_over_contact
}

/// Build the geometry for a row.
///
/// # Errors
///
/// Returns [`RowError`] for structurally impossible rows: mismatched
/// strip/finger counts, a finger narrower than a contact, more than four
/// distinct gate nets, or poly bars that cannot be assigned
/// non-conflicting bands.
pub fn build_row<R: RowLayout + ?Sized>(tech: &Technology, row: &R) -> Result<Row, RowError> {
    let mut cell = Cell::new(row.name());
    let nets = layout_row(tech, row, &mut cell)?;
    let well = cell.shapes_on(Layer::Nwell).next().map(|s| s.rect);
    let mut out = Row {
        cell,
        well,
        diff_area: BTreeMap::new(),
        diff_perimeter: BTreeMap::new(),
        contacts: BTreeMap::new(),
        em_clean: nets.iter().all(|n| n.kit.em_clean),
    };
    for n in &nets {
        out.diff_area.insert(n.net.to_owned(), n.area);
        out.diff_perimeter.insert(n.net.to_owned(), n.perimeter);
        out.contacts.insert(n.net.to_owned(), n.contacts);
    }
    Ok(out)
}

/// The bounding box (w, h) that [`build_row`] would draw, measured by the
/// same routine without keeping a shape or naming a net.
///
/// # Errors
///
/// The same as [`build_row`].
pub fn row_size<R: RowLayout + ?Sized>(tech: &Technology, row: &R) -> Result<(Nm, Nm), RowError> {
    let mut bbox: Option<Rect> = None;
    layout_row(tech, row, &mut bbox)?;
    let b = bbox.expect("a row draws its active area");
    Ok((b.width(), b.height()))
}

/// Where the row routine writes: a [`Cell`] keeps every shape and port,
/// a bounding box only the union of the shapes.
trait Sink {
    fn shape(&mut self, layer: Layer, rect: Rect, net: Option<&str>);
    fn port(&mut self, net: &str, layer: Layer, rect: Rect);
}

impl Sink for Cell {
    fn shape(&mut self, layer: Layer, rect: Rect, net: Option<&str>) {
        match net {
            Some(net) => self.draw_net(layer, rect, net),
            None => self.draw(layer, rect),
        }
    }

    fn port(&mut self, net: &str, layer: Layer, rect: Rect) {
        Cell::port(self, net, net, layer, rect);
    }
}

impl Sink for Option<Rect> {
    fn shape(&mut self, _: Layer, rect: Rect, _: Option<&str>) {
        *self = Some(self.map_or(rect, |b| b.union(&rect)));
    }

    fn port(&mut self, _: &str, _: Layer, _: Rect) {}
}

/// Per diffusion net bookkeeping, keyed by the name the row lends.
#[derive(Default)]
struct NetBook<'a> {
    net: &'a str,
    strips: usize,
    /// Total DC current (A).
    current: f64,
    /// What each of its strips gets.
    kit: StripKit,
    contacts: usize,
    /// Diffusion area (m²).
    area: f64,
    /// Diffusion sidewall perimeter (m), gate edges excluded.
    perimeter: f64,
    /// The net's metal-1 rail: bottom y, height, above the active?
    rail_y0: Nm,
    rail_h: Nm,
    top: bool,
}

/// The contact column, strap, riser and vias of a diffusion strip. They
/// depend only on the current the strip carries, so each net's strips
/// share one.
#[derive(Clone, Copy, Default)]
struct StripKit {
    cuts: usize,
    cut_y0: Nm,
    strap_w: Nm,
    riser_w: Nm,
    /// Height of the strap-side via column the riser covers.
    stack_span: Nm,
    strap_vias: usize,
    land_vias: usize,
    pad_w: Nm,
    /// Did every width and count meet its electromigration requirement?
    em_clean: bool,
}

/// Size the [`StripKit`] of a strip carrying `cur` amperes in a row of
/// `wf`-wide fingers, `l`-long gates and `total_w` total width.
fn strip_kit(tech: &Technology, wf: Nm, l: Nm, total_w: Nm, cur: f64) -> StripKit {
    let r = &tech.rules;
    let c2 = r.contacted_diffusion();
    // Contact column, centred vertically in the channel width.
    let n_required = tech.reliability.min_contacts(cur);
    let pitch = r.contact_size + r.contact_space;
    let n_fit = (((wf - 2 * r.active_over_contact + r.contact_space) / pitch) as usize).max(1);
    let cuts = n_required.min(n_fit);
    let col_h = (cuts as Nm) * r.contact_size + ((cuts - 1) as Nm) * r.contact_space;
    let cut_y0 = tech.snap(((wf - col_h) / 2).max(r.active_over_contact));
    // Strap width follows the EM requirement but is capped so neighbouring
    // straps keep their spacing; an unmet requirement clears em_clean.
    let strap_req = r
        .metal1_width
        .max(r.contact_size + 2 * r.metal1_over_contact)
        .max(tech.snap_up(tech.reliability.min_metal_width(1, cur)));
    let strap_max = (l + c2 - r.metal1_space).max(r.metal1_width);
    let strap_w = strap_req.min(tech.snap_down(strap_max));
    // The riser width must leave metal-2 spacing to the neighbouring
    // strips' risers, so EM demands beyond that are reported instead of
    // drawn.
    let via_pitch = r.via_size + r.via_space;
    let max_riser = (l + c2 - r.metal2_space).max(r.metal2_width);
    let riser_req = r
        .metal2_width
        .max(r.via_size + 2 * r.metal_over_via)
        .max(tech.snap_up(tech.reliability.min_metal_width(2, cur)));
    let riser_w = riser_req.min(tech.snap_down(max_riser));
    // The riser must cover the whole strap-side via column (the EM via
    // count stacks vertically).
    let n_vias = tech.reliability.min_vias(cur);
    let stack_span = 2 * r.metal_over_via
        + r.via_size
        + ((n_vias.max(1) - 1) as Nm) * (r.via_size + r.via_space);
    let strap_fit = ((((wf - 2 * r.metal_over_via) + r.via_space) / via_pitch) as usize).max(1);
    // The landing pad may be wider than the riser as long as it respects
    // spacing to the neighbouring strip's riser, one pitch away.
    let pad_budget = tech.snap_down((l + c2 - r.metal2_space).max(riser_w));
    let land_fit =
        (((pad_budget - 2 * r.metal_over_via + r.via_space) / via_pitch) as usize).max(1);
    let land_vias = n_vias.min(land_fit);
    let pad_w = (2 * r.metal_over_via
        + (land_vias as Nm) * r.via_size
        + ((land_vias - 1) as Nm) * r.via_space)
        .max(riser_w)
        .min(tech.snap_down(total_w));
    StripKit {
        cuts,
        cut_y0,
        strap_w,
        riser_w,
        stack_span,
        strap_vias: n_vias.min(strap_fit),
        land_vias,
        pad_w,
        em_clean: cuts == n_required
            && strap_w >= strap_req
            && riser_w >= riser_req
            && strap_fit >= n_vias
            && land_fit >= n_vias,
    }
}

/// The one geometry routine behind [`build_row`] and [`row_size`]. It
/// writes the row's shapes into `cell` and returns its diffusion nets.
fn layout_row<'a, R: RowLayout + ?Sized>(
    tech: &Technology,
    spec: &'a R,
    cell: &mut impl Sink,
) -> Result<Vec<NetBook<'a>>, RowError> {
    let r = &tech.rules;
    let nf = spec.fingers();
    if nf == 0 {
        return Err(RowError::new("a row needs at least one finger"));
    }
    if spec.strips() != nf + 1 {
        return Err(RowError::new(format!(
            "{} fingers need {} diffusion strips, got {}",
            nf,
            nf + 1,
            spec.strips()
        )));
    }
    if spec.finger_w() < min_finger_width(tech) {
        return Err(RowError::new(format!(
            "finger width {} nm below contactable minimum {} nm",
            spec.finger_w(),
            min_finger_width(tech)
        )));
    }
    if spec.gate_l() < r.poly_width {
        return Err(RowError::new(format!(
            "gate length {} nm below minimum {} nm",
            spec.gate_l(),
            r.poly_width
        )));
    }

    // ---- x geometry -----------------------------------------------------
    let e = r.end_diffusion();
    let c2 = r.contacted_diffusion();
    let l = spec.gate_l();
    let wf = spec.finger_w();
    // Strip i x-range.
    let strip_range = |i: usize| -> (Nm, Nm) {
        if i == 0 {
            (0, e)
        } else {
            let x0 = e + (i as Nm) * l + ((i - 1) as Nm) * c2;
            if i == nf {
                (x0, x0 + e)
            } else {
                (x0, x0 + c2)
            }
        }
    };
    // gate i sits right after strip i:
    let gate_x = |i: usize| -> Nm { strip_range(i).1 };
    let total_w = strip_range(nf).1;

    // ---- active, implants, well -----------------------------------------
    let active = Rect::from_size(0, 0, total_w, wf);
    cell.shape(Layer::Active, active, None);
    let implant = match spec.polarity() {
        Polarity::Nmos => Layer::Nplus,
        Polarity::Pmos => Layer::Pplus,
    };
    cell.shape(implant, active.expanded(r.gate_extension), None);
    if spec.polarity() == Polarity::Pmos {
        // The well is tagged with the bulk net so the extractor can
        // attribute the floating-well junction capacitance.
        let well = active.expanded(r.nwell_over_pactive);
        cell.shape(Layer::Nwell, well, Some(spec.bulk_net()));
    }

    // ---- strip-net bookkeeping -------------------------------------------
    // One entry per diffusion net, in order of first appearance; a row
    // has only a few, so a linear search finds them.
    let mut nets: Vec<NetBook<'a>> = Vec::new();
    let h_m = wf as f64 * 1e-9;
    for i in 0..=nf {
        let net = spec.strip_net(i);
        let k = nets.iter().position(|n| n.net == net).unwrap_or_else(|| {
            nets.push(NetBook {
                net,
                current: spec.net_current(net),
                ..NetBook::default()
            });
            nets.len() - 1
        });
        let (sx0, sx1) = strip_range(i);
        let w_m = (sx1 - sx0) as f64 * 1e-9;
        nets[k].strips += 1;
        nets[k].area += w_m * h_m;
        // Sidewall: two channel-parallel edges always; the outer edge of an
        // end strip too. Gate-side edges are excluded by convention.
        nets[k].perimeter += if i == 0 || i == nf {
            2.0 * w_m + h_m
        } else {
            2.0 * w_m
        };
    }

    // ---- rails: one per diffusion net ------------------------------------
    // Alternate top/bottom in order of first appearance.
    // Poly-bar band geometry (below/above active) is computed first so the
    // bottom rails can clear the poly bands. Only *device* fingers use
    // shared bars; dummy fingers tie locally to their neighbouring strip.
    let mut gates = assign_gate_bands(spec)?;
    let depth = |bottom: bool| {
        gates
            .iter()
            .filter_map(|g| match g.band {
                Band::Bottom(k) if bottom => Some(k + 1),
                Band::Top(k) if !bottom => Some(k + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    };
    let (max_bottom_band, max_top_band) = (depth(true), depth(false));
    let bar_h = r.poly_width.max(r.contact_size + 2 * r.poly_over_contact);
    let pad = r.contact_size + 2 * r.poly_over_contact;
    let band_pitch = bar_h + r.poly_space;
    let has_dummies = (0..nf).any(|i| spec.gate_net(i).is_none());
    // Dummy-tie zone sits *between* the gate end caps and the first top
    // poly band: a dummy's gate never has to climb past a foreign bar,
    // which keeps the band-crossing analysis sound.
    let tie_zone_y0 = wf + r.gate_extension + r.poly_space;
    // Base y of the top poly bands (above the tie zone when present).
    let top_base = wf
        + r.gate_extension
        + if has_dummies {
            2 * r.poly_space + pad
        } else {
            0
        };
    // y where poly geometry ends below/above the active.
    let poly_bottom = -r.gate_extension - (max_bottom_band as Nm) * band_pitch;
    let poly_top = top_base + (max_top_band as Nm) * band_pitch;

    let mut next_top_y = poly_top + r.metal1_space;
    let mut next_bottom_y = poly_bottom - r.metal1_space;
    for (k, rail) in nets.iter_mut().enumerate() {
        rail.kit = strip_kit(tech, wf, l, total_w, rail.current / rail.strips as f64);
        let h = rail_width(tech, 1, rail.current);
        rail.rail_h = h;
        rail.top = k % 2 == 0;
        if rail.top {
            rail.rail_y0 = next_top_y;
            next_top_y += h + r.metal1_space;
        } else {
            next_bottom_y -= h;
            rail.rail_y0 = next_bottom_y;
            next_bottom_y -= r.metal1_space;
        }
    }
    for rail in &nets {
        let rect = Rect::from_size(0, rail.rail_y0, total_w, rail.rail_h);
        cell.shape(Layer::Metal1, rect, Some(rail.net));
        cell.port(rail.net, Layer::Metal1, rect);
    }

    // ---- contacts + straps + risers per strip -----------------------------
    // Contact-column / strap centre x of a strip.
    let strip_cx = |i: usize| -> Nm {
        let (sx0, sx1) = strip_range(i);
        if i == 0 {
            r.active_over_contact + r.contact_size / 2
        } else if i == nf {
            sx1 - r.active_over_contact - r.contact_size / 2
        } else {
            (sx0 + sx1) / 2
        }
    };
    for i in 0..=nf {
        let net = spec.strip_net(i);
        let ni = nets
            .iter()
            .position(|n| n.net == net)
            .expect("every strip net is booked");
        let rail = &nets[ni];
        let (rail_y0, rail_h, rail_top, kit) = (rail.rail_y0, rail.rail_h, rail.top, rail.kit);
        // Centre the contact column horizontally in the strip (end strips
        // centre over their contact area) and vertically in the channel
        // width.
        let cx = strip_cx(i);
        let pitch = r.contact_size + r.contact_space;
        let cut_x0 = tech.snap(cx - r.contact_size / 2);
        for k in 0..kit.cuts {
            let y = kit.cut_y0 + (k as Nm) * pitch;
            let cut = Rect::from_size(cut_x0, y, r.contact_size, r.contact_size);
            cell.shape(Layer::Contact, cut, Some(net));
        }
        nets[ni].contacts += kit.cuts;

        // Metal-1 strap over the contacts, spanning the channel height.
        let strap = Rect::new(
            tech.snap(cx - kit.strap_w / 2),
            -r.metal1_over_contact.min(0),
            tech.snap(cx + kit.strap_w - kit.strap_w / 2),
            wf,
        );
        cell.shape(Layer::Metal1, strap, Some(net));

        // Riser to this net's rail: metal-2 with vias at both ends so it
        // may cross other metal-1 rails.
        let (ry0, ry1) = if rail_top {
            (wf - kit.stack_span, rail_y0 + rail_h)
        } else {
            (rail_y0, kit.stack_span)
        };
        let riser = Rect::new(
            tech.snap(cx - kit.riser_w / 2),
            ry0,
            tech.snap(cx + kit.riser_w / 2),
            ry1,
        );
        cell.shape(Layer::Metal2, riser, Some(net));
        // Strap-side vias: stacked *vertically* inside the strap/riser
        // overlap (the strap spans the whole channel height) so the EM
        // count never widens the riser.
        let via_pitch = r.via_size + r.via_space;
        let vx = tech.snap(cx - r.via_size / 2);
        for k in 0..kit.strap_vias {
            let vy = if rail_top {
                wf - r.metal_over_via - r.via_size - (k as Nm) * via_pitch
            } else {
                r.metal_over_via + (k as Nm) * via_pitch
            };
            let via = Rect::from_size(vx, vy, r.via_size, r.via_size);
            cell.shape(Layer::Via1, via, Some(net));
        }
        // Rail-side vias: a horizontal row along the rail, covered by a
        // metal-2 landing pad. Keep the pad (and its vias) inside the rail
        // extent: edge strips would otherwise overhang the row end.
        let pad_x0 = tech.snap((cx - kit.pad_w / 2).clamp(0, total_w - kit.pad_w));
        let pad = Rect::new(pad_x0, rail_y0, pad_x0 + kit.pad_w, rail_y0 + rail_h);
        cell.shape(Layer::Metal2, pad, Some(net));
        let vy = tech.snap(rail_y0 + (rail_h - r.via_size) / 2);
        for k in 0..kit.land_vias {
            let vx_k = tech.snap(pad_x0 + r.metal_over_via + (k as Nm) * via_pitch);
            let via = Rect::from_size(vx_k, vy, r.via_size, r.via_size);
            cell.shape(Layer::Via1, via, Some(net));
        }
    }

    // ---- poly fingers and bars -------------------------------------------
    // Draw bars, bridges and contact pads, in gate-net name order. Every
    // band hosts exactly one net; pads sit to the left of the row,
    // staggered per band so their metal-1 landing squares respect spacing
    // among themselves and to the in-row straps (which all live at x ≥ 0).
    // A bar spans its net's device fingers; dummies tie locally.
    let pad_m1 = r.contact_size + 2 * r.metal1_over_contact;
    gates.sort_by(|a, b| a.net.cmp(b.net));
    for (bi, g) in gates.iter().enumerate() {
        let (bx0, bx1) = (gate_x(g.first), gate_x(g.last) + l);
        let (y0, _) = band_y(g.band, r.gate_extension, top_base, band_pitch, bar_h);
        // Pad x slot: staggered left of the row.
        let pad_x1 = -r.metal1_space - (bi as Nm) * (pad_m1.max(pad) + r.metal1_space);
        let pad_rect = Rect::from_size(pad_x1 - pad, y0 + (bar_h - pad) / 2, pad, pad);
        // Bar extended into a bridge reaching the pad.
        let bar = Rect::new(pad_rect.x0, y0, bx1.max(bx0 + bar_h), y0 + bar_h);
        cell.shape(Layer::Poly, bar, Some(g.net));
        cell.shape(Layer::Poly, pad_rect, Some(g.net));
        let cut = Rect::from_size(
            pad_rect.x0 + r.poly_over_contact,
            pad_rect.y0 + r.poly_over_contact,
            r.contact_size,
            r.contact_size,
        );
        cell.shape(Layer::Contact, cut, Some(g.net));
        let m1 = cut.expanded(r.metal1_over_contact);
        cell.shape(Layer::Metal1, m1, Some(g.net));
        cell.port(g.net, Layer::Metal1, m1);
    }
    // Fingers. Device fingers reach their gate net's bar; dummy fingers
    // grow a local tie: a contacted poly pad in the tie zone above the
    // row, strapped by metal-1 to the adjacent (left) diffusion strip so
    // the dummy is biased off — the usual dummy discipline.
    for i in 0..nf {
        let x0 = gate_x(i);
        if let Some(net) = spec.gate_net(i) {
            let band = gates
                .iter()
                .find(|g| g.net == net)
                .expect("every device gate net has a band")
                .band;
            let (band_y0, _) = band_y(band, r.gate_extension, top_base, band_pitch, bar_h);
            let (fy0, fy1) = match band {
                Band::Bottom(_) => (band_y0, wf + r.gate_extension),
                Band::Top(_) => (-r.gate_extension, band_y0 + bar_h),
            };
            cell.shape(Layer::Poly, Rect::new(x0, fy0, x0 + l, fy1), Some(net));
            continue;
        }
        // Dummy: gate tied to the adjacent (left) diffusion strip, which
        // biases the device at VGS = 0 — off — whatever the strip's
        // potential. A contacted poly pad sits directly over the gate in
        // the tie zone; a metal-1 jog (metal may cross poly freely)
        // reaches the strip's strap.
        let tie_net = Some(spec.strip_net(i));
        let gx = x0 + l / 2;
        cell.shape(
            Layer::Poly,
            Rect::new(x0, -r.gate_extension, x0 + l, tie_zone_y0),
            tie_net,
        );
        let pad_rect = Rect::from_size(tech.snap(gx - pad / 2), tie_zone_y0, pad, pad);
        cell.shape(Layer::Poly, pad_rect, tie_net);
        let cut = Rect::from_size(
            pad_rect.x0 + r.poly_over_contact,
            pad_rect.y0 + r.poly_over_contact,
            r.contact_size,
            r.contact_size,
        );
        cell.shape(Layer::Contact, cut, tie_net);
        let m1_pad = cut.expanded(r.metal1_over_contact);
        cell.shape(Layer::Metal1, m1_pad, tie_net);
        let scx = strip_cx(i);
        let jog = Rect::new(scx.min(m1_pad.x0), m1_pad.y0, scx.max(m1_pad.x1), m1_pad.y1);
        cell.shape(Layer::Metal1, jog, tie_net);
        let ext_w = r
            .metal1_width
            .max(r.contact_size + 2 * r.metal1_over_contact);
        cell.shape(
            Layer::Metal1,
            Rect::new(
                tech.snap(scx - ext_w / 2),
                wf,
                tech.snap(scx + ext_w / 2),
                m1_pad.y1,
            ),
            tie_net,
        );
    }

    Ok(nets)
}

/// Poly-bar band: below or above the active, at depth `k` (0 = nearest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    Bottom(usize),
    Top(usize),
}

fn band_y(band: Band, gate_ext: Nm, top_base: Nm, band_pitch: Nm, bar_h: Nm) -> (Nm, bool) {
    match band {
        Band::Bottom(k) => (
            -gate_ext - ((k + 1) as Nm) * band_pitch + (band_pitch - bar_h),
            false,
        ),
        Band::Top(k) => (top_base + (k as Nm) * band_pitch, true),
    }
}

/// A device gate net of a row: the first and last finger it drives, how
/// many it drives, and its poly band.
struct Gate<'a> {
    net: &'a str,
    first: usize,
    last: usize,
    fingers: usize,
    band: Band,
}

/// Assign each distinct *device* gate net to a poly band such that no
/// finger has to cross a foreign bar. Each band hosts exactly one net
/// (the bar bridges all the way to its pad at the left of the row, so
/// bands cannot be shared). Dummy fingers do not participate — they tie
/// locally to their neighbouring strip.
fn assign_gate_bands<R: RowLayout + ?Sized>(spec: &R) -> Result<Vec<Gate<'_>>, RowError> {
    // Distinct device gate nets in first-appearance order, with their
    // finger index ranges and counts.
    let mut gates: Vec<Gate> = Vec::new();
    for (i, net) in (0..spec.fingers()).filter_map(|i| Some(i).zip(spec.gate_net(i))) {
        match gates.iter_mut().find(|g| g.net == net) {
            Some(g) => {
                g.last = i;
                g.fingers += 1;
            }
            None => gates.push(Gate {
                net,
                first: i,
                last: i,
                fingers: 1,
                band: Band::Bottom(0),
            }),
        }
    }
    if gates.len() > 4 {
        return Err(RowError::new(format!(
            "{} distinct gate nets in one row exceed the 4 available poly bands",
            gates.len()
        )));
    }
    // Busiest nets first: they get the near bands.
    gates.sort_by_key(|g| std::cmp::Reverse(g.fingers));

    let slots = [Band::Bottom(0), Band::Top(0), Band::Bottom(1), Band::Top(1)];
    for k in 0..gates.len() {
        let first = gates[k].first;
        let free = |s: Band| {
            gates[..k].iter().all(|other| {
                // One net per band. A deeper band on the same side: our
                // fingers must pass beside the nearer bar *and its left
                // bridge*, i.e. lie strictly right of that bar's right end.
                let crosses_nearer = match (s, other.band) {
                    (Band::Bottom(1), Band::Bottom(0)) | (Band::Top(1), Band::Top(0)) => {
                        first <= other.last
                    }
                    _ => false,
                };
                other.band != s && !crosses_nearer
            })
        };
        let band = slots
            .into_iter()
            .find(|&s| free(s))
            .ok_or_else(|| RowError::new("cannot place poly bars without crossings"))?;
        gates[k].band = band;
    }
    Ok(gates)
}

/// Rail width on metal `level` for `current` amperes (nm, grid-snapped,
/// at least the minimum width rule).
fn rail_width(tech: &Technology, level: u8, current: f64) -> Nm {
    let r = &tech.rules;
    let min = r.metal_width(level).max(r.via_size + 2 * r.metal_over_via);
    let em = tech.reliability.min_metal_width(level, current);
    tech.snap_up(min.max(em))
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::units::um;

    fn tech() -> Technology {
        Technology::cmos06()
    }

    /// A simple 4-finger NMOS with internal drains: S d S d S.
    fn simple_spec() -> RowSpec {
        let mut net_currents = BTreeMap::new();
        net_currents.insert("d".to_owned(), 100e-6);
        net_currents.insert("s".to_owned(), 100e-6);
        RowSpec {
            name: "m1".into(),
            polarity: Polarity::Nmos,
            finger_w: um(5.0),
            gate_l: um(1.0),
            strip_nets: ["s", "d", "s", "d", "s"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            fingers: (0..4)
                .map(|i| Finger {
                    gate_net: "g".into(),
                    device: Some("m1".into()),
                    flipped: i % 2 == 1,
                })
                .collect(),
            bulk_net: "gnd".into(),
            net_currents,
        }
    }

    #[test]
    fn simple_row_builds() {
        let row = build_row(&tech(), &simple_spec()).unwrap();
        assert!(row.em_clean);
        assert!(row.well.is_none(), "NMOS has no well");
        // Ports: d, s rails + g pad.
        for p in ["d", "s", "g"] {
            assert!(row.cell.find_port(p).is_some(), "missing port {p}");
        }
    }

    #[test]
    fn diffusion_matches_folding_formula() {
        // 4 fingers, drain internal → F(drain) = 1/2, F(source) = 6/8.
        let t = tech();
        let row = build_row(&t, &simple_spec()).unwrap();
        let wf_m = 5e-6;
        let c2_m = t.rules.contacted_diffusion() as f64 * 1e-9;
        let e_m = t.rules.end_diffusion() as f64 * 1e-9;
        let expect_d = 2.0 * wf_m * c2_m; // 2 internal strips
        let expect_s = wf_m * (c2_m + 2.0 * e_m); // 1 internal + 2 ends
        assert!(
            (row.diff_area["d"] - expect_d).abs() < 1e-18,
            "drain area {}",
            row.diff_area["d"]
        );
        assert!((row.diff_area["s"] - expect_s).abs() < 1e-18);
        // Perimeters: drain strips are internal (no outer edge).
        let p_d = 2.0 * (2.0 * c2_m);
        assert!((row.diff_perimeter["d"] - p_d).abs() < 1e-15);
    }

    #[test]
    fn pmos_gets_a_well() {
        let mut spec = simple_spec();
        spec.polarity = Polarity::Pmos;
        spec.bulk_net = "vdd".into();
        let row = build_row(&tech(), &spec).unwrap();
        let well = row.well.expect("PMOS needs an N-well");
        // Well encloses active by the rule.
        assert_eq!(well.height(), um(5.0) + 2 * tech().rules.nwell_over_pactive);
    }

    #[test]
    fn contact_count_follows_current() {
        let t = tech();
        let mut spec = simple_spec();
        // 2 mA through the drain net over 2 strips → 1 mA per strip →
        // ceil(1 mA / 0.4 mA) = 3 contacts each, 6 total.
        spec.net_currents.insert("d".into(), 2e-3);
        let row = build_row(&t, &spec).unwrap();
        assert_eq!(row.contacts["d"], 6);
        assert!(row.em_clean);
    }

    #[test]
    fn em_violation_detected_when_too_narrow() {
        let t = tech();
        let mut spec = simple_spec();
        spec.finger_w = min_finger_width(&t); // fits exactly 1 contact
        spec.net_currents.insert("d".into(), 10e-3); // needs many cuts
        let row = build_row(&t, &spec).unwrap();
        assert!(!row.em_clean, "EM requirement cannot be met in one contact");
    }

    #[test]
    fn two_gate_nets_get_two_bands() {
        let mut spec = simple_spec();
        // Interdigitated pair: gates alternate a, b.
        for (i, f) in spec.fingers.iter_mut().enumerate() {
            f.gate_net = if i % 2 == 0 { "a".into() } else { "b".into() };
        }
        let row = build_row(&tech(), &spec).unwrap();
        assert!(row.cell.find_port("a").is_some());
        assert!(row.cell.find_port("b").is_some());
        // Poly bars must not overlap each other.
        let bars: Vec<_> = row
            .cell
            .shapes_on(Layer::Poly)
            .filter(|s| s.rect.width() > spec.gate_l * 2)
            .collect();
        assert_eq!(bars.len(), 2, "one bar per gate net");
        assert!(!bars[0].rect.overlaps(&bars[1].rect));
    }

    #[test]
    fn too_many_gate_nets_rejected() {
        let mut spec = simple_spec();
        spec.strip_nets = (0..6).map(|i| format!("n{i}")).collect();
        spec.fingers = (0..5)
            .map(|i| Finger {
                gate_net: format!("g{i}"),
                device: Some(format!("m{i}")),
                flipped: false,
            })
            .collect();
        let err = build_row(&tech(), &spec).unwrap_err();
        assert!(err.to_string().contains("poly bands"), "{err}");
    }

    #[test]
    fn mismatched_strip_count_rejected() {
        let mut spec = simple_spec();
        spec.strip_nets.pop();
        assert!(build_row(&tech(), &spec).is_err());
    }

    #[test]
    fn narrow_finger_rejected() {
        let mut spec = simple_spec();
        spec.finger_w = 100;
        let err = build_row(&tech(), &spec).unwrap_err();
        assert!(err.to_string().contains("contactable"), "{err}");
    }

    #[test]
    fn no_same_layer_shorts_between_nets() {
        // No two shapes on the same conducting layer with different nets
        // may overlap.
        let row = build_row(&tech(), &simple_spec()).unwrap();
        let shapes = &row.cell.shapes;
        for (i, a) in shapes.iter().enumerate() {
            for b in shapes.iter().skip(i + 1) {
                if a.layer != b.layer || !a.layer.is_routing() {
                    continue;
                }
                if let (Some(na), Some(nb)) = (&a.net, &b.net) {
                    if na != nb {
                        assert!(
                            !a.rect.overlaps(&b.rect),
                            "short between {na} and {nb} on {:?}: {} vs {}",
                            a.layer,
                            a.rect,
                            b.rect
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn works_in_both_technologies() {
        for t in [Technology::cmos06(), Technology::cmos035()] {
            let mut spec = simple_spec();
            spec.finger_w = t.snap_up(spec.finger_w);
            spec.gate_l = t.rules.poly_width;
            let row = build_row(&t, &spec).unwrap();
            assert!(row.cell.bbox().is_some(), "row built in {}", t.name());
        }
    }
}
