//! Geometric parasitic extraction.
//!
//! "All parasitic estimations are done using simple geometrical methods
//! which combine reasonable accuracy with low computational cost" (§3).
//! The extractor walks the flattened cell:
//!
//! * every net-bound shape on a routing layer contributes plate + fringe
//!   capacitance to substrate (poly over the channel is excluded — that
//!   capacitance belongs to the device model);
//! * same-layer shapes of different nets running close together
//!   contribute coupling capacitance, scaled with spacing;
//! * N-well rectangles contribute junction capacitance tied to the well's
//!   net;
//! * diffusion junction capacitance is reported per device by the row
//!   generators (exact areas/perimeters), not re-derived from polygons.

use crate::cell::Cell;
use losac_tech::{Layer, Technology};
use std::collections::BTreeMap;

/// Extracted parasitics of a cell.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    /// Wire capacitance to substrate per net (F).
    pub net_cap: BTreeMap<String, f64>,
    /// Coupling capacitance between net pairs (F), keys ordered
    /// lexicographically.
    pub coupling: BTreeMap<(String, String), f64>,
    /// Well junction capacitance per net (F) at zero bias.
    pub well_cap: BTreeMap<String, f64>,
}

impl Extraction {
    /// Coupling between two nets, order-insensitive (F).
    pub fn coupling_between(&self, a: &str, b: &str) -> f64 {
        let key = ordered(a, b);
        self.coupling.get(&key).copied().unwrap_or(0.0)
    }
}

fn ordered(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
    }
}

/// Routing level of a layer for the capacitance tables.
fn wire_level(layer: Layer) -> Option<u8> {
    match layer {
        Layer::Poly => Some(0),
        Layer::Metal1 => Some(1),
        Layer::Metal2 => Some(2),
        _ => None,
    }
}

/// Extract wire, coupling and well capacitance from a flattened cell.
///
/// `coupling_window` limits the coupling search: parallel shapes farther
/// apart than this many multiples of the layer's minimum spacing are
/// ignored (3 is a good default).
pub fn extract(tech: &Technology, cell: &Cell, coupling_window: f64) -> Extraction {
    let mut out = Extraction::default();

    // Active regions, to exclude the channel area from poly wire caps.
    let actives: Vec<_> = cell.shapes_on(Layer::Active).map(|s| s.rect).collect();

    // --- plate + fringe to substrate --------------------------------------
    for s in &cell.shapes {
        let Some(net) = &s.net else { continue };
        let Some(level) = wire_level(s.layer) else {
            continue;
        };
        let caps = tech.caps.wire(level);
        let w = s.rect.width().min(s.rect.height()) as f64 * 1e-9;
        let l = s.rect.width().max(s.rect.height()) as f64 * 1e-9;
        let mut c = caps.wire_to_substrate(w, l);
        if s.layer == Layer::Poly {
            // Exclude gate area (substrate sees the channel there; the
            // device model owns that capacitance).
            for a in &actives {
                if let Some(ov) = s.rect.intersection(a) {
                    c -= caps.area * ov.area_m2();
                }
            }
            c = c.max(0.0);
        }
        *out.net_cap.entry(net.clone()).or_insert(0.0) += c;
    }

    // --- coupling -----------------------------------------------------------
    let shapes: Vec<_> = cell
        .shapes
        .iter()
        .filter(|s| s.net.is_some() && wire_level(s.layer).is_some())
        .collect();
    for (i, a) in shapes.iter().enumerate() {
        for b in shapes.iter().skip(i + 1) {
            if a.layer != b.layer {
                continue;
            }
            let (na, nb) = (a.net.as_ref().unwrap(), b.net.as_ref().unwrap());
            if na == nb {
                continue;
            }
            let level = wire_level(a.layer).unwrap();
            let min_space = match level {
                0 => tech.rules.poly_space,
                1 => tech.rules.metal1_space,
                _ => tech.rules.metal2_space,
            };
            let spacing = a.rect.spacing_to(&b.rect);
            if spacing == 0 || (spacing as f64) > coupling_window * min_space as f64 {
                continue;
            }
            // Parallel-run length: overlap along the axis perpendicular to
            // the gap.
            let run = a.rect.x_overlap(&b.rect).max(a.rect.y_overlap(&b.rect));
            if run <= 0 {
                continue;
            }
            let coeff = tech.caps.wire(level).coupling;
            let c = coeff * (run as f64 * 1e-9) * (min_space as f64 / spacing as f64);
            *out.coupling.entry(ordered(na, nb)).or_insert(0.0) += c;
        }
    }

    // --- wells ---------------------------------------------------------------
    for s in cell.shapes_on(Layer::Nwell) {
        // Wells are drawn as passive geometry; their electrical net is the
        // bulk connection. We attribute them to a net via a same-area
        // port/shape search: the well-tap convention in this workspace is
        // that the well's net is recorded by the generator as a shape on
        // Nwell with a net tag when known.
        let net = s.net.clone().unwrap_or_else(|| "substrate".to_owned());
        let c = tech
            .caps
            .nwell
            .capacitance_zero_bias(s.rect.area_m2(), s.rect.perimeter_m());
        *out.well_cap.entry(net).or_insert(0.0) += c;
    }

    out
}

/// Convenience: extraction with the default coupling window of 3×.
pub fn extract_default(tech: &Technology, cell: &Cell) -> Extraction {
    extract(tech, cell, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use losac_tech::units::{um, Nm};

    fn tech() -> Technology {
        Technology::cmos06()
    }

    #[test]
    fn metal_wire_cap_magnitude() {
        // A 100 µm × 1 µm metal-1 wire:
        // plate 0.03 fF/µm² × 100 µm² = 3 fF; fringe 0.08 fF/µm × 200 µm
        // = 16 fF. Total 19 fF.
        let mut c = Cell::new("t");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, 0, um(100.0), um(1.0)),
            "n",
        );
        let x = extract_default(&tech(), &c);
        let cap = x.net_cap["n"];
        assert!((cap - 19.0e-15).abs() < 0.5e-15, "cap = {cap:e}");
    }

    #[test]
    fn orientation_irrelevant() {
        let mut a = Cell::new("h");
        a.draw_net(Layer::Metal2, Rect::from_size(0, 0, um(50.0), um(2.0)), "n");
        let mut b = Cell::new("v");
        b.draw_net(Layer::Metal2, Rect::from_size(0, 0, um(2.0), um(50.0)), "n");
        let t = tech();
        let ca = extract_default(&t, &a).net_cap["n"];
        let cb = extract_default(&t, &b).net_cap["n"];
        assert!((ca - cb).abs() < 1e-20);
    }

    #[test]
    fn poly_over_active_excluded() {
        let t = tech();
        let mut c = Cell::new("t");
        c.draw(Layer::Active, Rect::from_size(0, 0, um(10.0), um(10.0)));
        // Poly wire completely over active: only fringe remains.
        c.draw_net(
            Layer::Poly,
            Rect::from_size(0, um(4.0), um(10.0), um(1.0)),
            "g",
        );
        let x = extract_default(&t, &c);
        let fringe_only = 2.0 * t.caps.poly_field.fringe * 10e-6;
        assert!(
            (x.net_cap["g"] - fringe_only).abs() < 1e-18,
            "cap {:e}",
            x.net_cap["g"]
        );
    }

    #[test]
    fn coupling_scales_with_spacing() {
        let t = tech();
        let build = |gap_nm: Nm| {
            let mut c = Cell::new("t");
            c.draw_net(
                Layer::Metal1,
                Rect::from_size(0, 0, um(100.0), um(1.0)),
                "a",
            );
            c.draw_net(
                Layer::Metal1,
                Rect::from_size(0, um(1.0) + gap_nm, um(100.0), um(1.0)),
                "b",
            );
            extract_default(&t, &c).coupling_between("a", "b")
        };
        let near = build(t.rules.metal1_space);
        let far = build(2 * t.rules.metal1_space);
        assert!(near > 0.0);
        assert!(
            (near / far - 2.0).abs() < 1e-9,
            "1/d scaling: {near:e} vs {far:e}"
        );
        // At minimum spacing: 0.1 fF/µm × 100 µm = 10 fF.
        assert!((near - 10.0e-15).abs() < 0.5e-15, "near = {near:e}");
    }

    #[test]
    fn distant_wires_do_not_couple() {
        let t = tech();
        let mut c = Cell::new("t");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, 0, um(100.0), um(1.0)),
            "a",
        );
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, um(50.0), um(100.0), um(1.0)),
            "b",
        );
        let x = extract_default(&t, &c);
        assert_eq!(x.coupling_between("a", "b"), 0.0);
    }

    #[test]
    fn same_net_does_not_couple_to_itself() {
        let t = tech();
        let mut c = Cell::new("t");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, 0, um(100.0), um(1.0)),
            "a",
        );
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, um(2.0), um(100.0), um(1.0)),
            "a",
        );
        let x = extract_default(&t, &c);
        assert!(x.coupling.is_empty());
    }

    #[test]
    fn different_layers_do_not_couple() {
        let t = tech();
        let mut c = Cell::new("t");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, 0, um(100.0), um(1.0)),
            "a",
        );
        c.draw_net(
            Layer::Metal2,
            Rect::from_size(0, um(2.0), um(100.0), um(1.0)),
            "b",
        );
        let x = extract_default(&t, &c);
        assert_eq!(x.coupling_between("a", "b"), 0.0);
    }

    #[test]
    fn well_capacitance_reported() {
        let t = tech();
        let mut c = Cell::new("t");
        c.draw_net(
            Layer::Nwell,
            Rect::from_size(0, 0, um(20.0), um(10.0)),
            "vdd",
        );
        let x = extract_default(&t, &c);
        let expected = t.caps.nwell.capacitance_zero_bias(200e-12, 60e-6);
        assert!((x.well_cap["vdd"] - expected).abs() < 1e-18);
    }
}
